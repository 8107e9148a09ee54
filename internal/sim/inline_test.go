package sim

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestAccessPathInlines pins the simulator's access path to the inliner:
// every simulated load and store goes through word or dirEntry, and both
// through page, so a call left on that path costs every event. page's cost
// is 66 and word's and dirEntry's are 78, against the inliner's budget of
// 80 (go build -gcflags=-m=2 ./internal/sim/ prints them): one more
// statement can push any of them out.
func TestAccessPathInlines(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := exec.LookPath(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Skip("no go binary to run the inliner with")
		}
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{"page", "word", "dirEntry"} {
		if !strings.Contains(string(out), "can inline (*Machine)."+fn+"\n") {
			t.Errorf("(*Machine).%s no longer inlines", fn)
		}
	}
}
