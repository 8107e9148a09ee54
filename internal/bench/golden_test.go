package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_*.csv from this build")

// goldenScale is the benchmark's sim-figures scale (benchmark/simfig.go).
const goldenScale = 0.05

// goldenCSV regenerates every modeled table — the sim-figures set (Fig 2a,
// 2b, 3(b), 4(b), A8), the rest of the paper's figures, A1–A5, E1, E2,
// A10's modeled arms and A12's hardware sweep, which carries both HTM
// models and both composed commit modes.
func goldenCSV() string {
	var b strings.Builder
	tp := ThreePathSample(goldenScale)
	for _, f := range []Figure{
		Fig2a(goldenScale), Fig2b(goldenScale), Fig3(34, goldenScale), Fig4(80, goldenScale),
		AblationComposedMoveSim(goldenScale),
		Fig3(0, goldenScale), Fig3(100, goldenScale), Fig4(0, goldenScale), Fig4(100, goldenScale),
		Fig5a(goldenScale), Fig5b(goldenScale), Fig5c(goldenScale),
		AblationMindicatorRetries(goldenScale), AblationMoundRetries(goldenScale),
		AblationBSTBudgets(goldenScale), AblationCapacity(goldenScale), AblationSMT(goldenScale),
		ExtList(34, goldenScale), ExtQueue(goldenScale),
		{ID: "Ablation A10 modeled", Series: []Series{
			{Name: "Fast+slow only", Points: tp.FastSlow},
			{Name: fmt.Sprintf("Three-path helping middle (helped_descs=%d)", tp.Helped), Points: tp.ThreePath},
		}},
		AblationFrontier(goldenScale),
	} {
		b.WriteString(CSV(f))
	}
	return b.String()
}

// TestGoldenFigures pins the modeled figures byte for byte. The file was
// generated at the commit before internal/sim lost its scheduler goroutine
// (ISSUE 13): a simulator change that is only about host speed must leave it
// untouched, and one that moves a figure on purpose regenerates it with
// -update and says so in CHANGES.md.
func TestGoldenFigures(t *testing.T) {
	longSweep(t)
	const path = "testdata/golden_s005.csv"
	got := goldenCSV()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("figures differ from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("figures differ from %s: %d lines, want %d", path, len(gl), len(wl))
}
