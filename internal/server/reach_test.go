package server

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The server's packages import internal/sim (txnops → simtxn, simspec), but
// nothing they run builds a machine: sim.New, whose invalid-Config panic is
// the one panic of the simulator's boundary, is called only by the figure
// generator and the twin replay tests. This walks every repro/... package the
// server imports, directly or not, and fails if one of them calls sim.New in
// a non-test file — then a request could reach that panic.

const simPath = "repro/internal/sim"

// moduleDir is the directory of a repro/... package, from this package's
// directory (internal/server).
func moduleDir(path string) string {
	return filepath.Join("..", "..", filepath.FromSlash(strings.TrimPrefix(path, "repro/")))
}

// callsSimNew reports the non-test files of pkg that call sim.New, whatever
// name they import the simulator under.
func callsSimNew(t *testing.T, pkg *build.Package) []string {
	t.Helper()
	var callers []string
	fset := token.NewFileSet()
	for _, name := range pkg.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == simPath {
				local = "sim"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "New" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					callers = append(callers, name)
					return false
				}
			}
			return true
		})
	}
	return callers
}

func importRepro(t *testing.T, path string) *build.Package {
	t.Helper()
	pkg, err := build.ImportDir(moduleDir(path), 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return pkg
}

func TestHandlerCannotReachSimNew(t *testing.T) {
	// The detector finds the callers that do exist.
	for _, path := range []string{"repro/internal/bench", "repro/internal/semtx/txtest"} {
		if len(callsSimNew(t, importRepro(t, path))) == 0 {
			t.Fatalf("%s: no call of sim.New found; the detector is broken", path)
		}
	}

	seen := map[string]bool{}
	queue := []string{"repro/internal/server"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg := importRepro(t, path)
		if callers := callsSimNew(t, pkg); len(callers) > 0 {
			t.Errorf("%s (imported by the server) calls sim.New in %v", path, callers)
		}
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, "repro/") {
				queue = append(queue, imp)
			}
		}
	}
	if !seen[simPath] {
		t.Fatalf("the walk never reached %s: either it no longer follows imports, or the server stopped importing the simulator and this test can go", simPath)
	}
	walked := make([]string, 0, len(seen))
	for p := range seen {
		walked = append(walked, p)
	}
	sort.Strings(walked)
	t.Logf("walked %d packages: %v", len(walked), walked)
}
