package bench

import "testing"

// TestFrontierSample pins the A12 acceptance claim on the deterministic
// machine: the sweep covers every shape × budget, at least one shape's
// bounded arm does not fit at the smallest budget and fits at a larger one
// (a located set-size threshold), and the NBTC arm fits below a bounded
// threshold.
func TestFrontierSample(t *testing.T) {
	longSweep(t)
	r := FrontierSample(ablationTestScale)
	if r.Threads != a12Threads {
		t.Fatalf("threads = %d, want %d", r.Threads, a12Threads)
	}
	if len(r.Shapes) != len(frontierShapes) {
		t.Fatalf("shapes = %d, want %d", len(r.Shapes), len(frontierShapes))
	}
	for _, fs := range r.Shapes {
		if fs.Baseline <= 0 {
			t.Errorf("%s: non-positive baseline %v", fs.Shape, fs.Baseline)
		}
		if len(fs.Points) != len(a12SetLines) {
			t.Errorf("%s: %d points, want %d", fs.Shape, len(fs.Points), len(a12SetLines))
		}
		for _, p := range fs.Points {
			if p.Bounded <= 0 || p.BoundedNBTC <= 0 {
				t.Errorf("%s at %d lines: non-positive throughput %+v", fs.Shape, p.SetLines, p)
			}
		}
	}
	if !r.BoundedSetOK {
		t.Error("no shape located a set-size threshold (bounded_set_ok=false)")
	}
	if !r.NBTCOK {
		t.Error("NBTC shifted no threshold and won nowhere below one (nbtc_ok=false)")
	}
	// The single-op shape is the canonical crossover: a handful of lines
	// cannot hold a BST operation's traversal footprint, so the smallest
	// budget must sit below the fit threshold while some swept budget fits.
	single := r.Shapes[0]
	if single.FitLines <= a12SetLines[0] {
		t.Errorf("single-op fit at %d lines — the smallest budget should not fit", single.FitLines)
	}
	// A fit is where operations commit, not a throughput level the
	// fallback alone can reach: the pair Move's bounded arm runs almost
	// wholly on the fallback at 4 and 8 lines, and moveall-16 finishes in
	// one hardware transaction on neither arm at any budget.
	if pair := r.Shapes[1]; pair.FitLines != 0 && pair.FitLines <= 8 {
		t.Errorf("pair-move's bounded arm fit at %d lines, want above 8", pair.FitLines)
	}
	if wide := r.Shapes[3]; wide.FitLines != 0 || wide.NBTCFitLines != 0 {
		t.Errorf("moveall-16 fit at %d lines (bounded) and %d (nbtc), want nowhere", wide.FitLines, wide.NBTCFitLines)
	}
}

// TestAblationFrontierFigure checks the rendered figure's shape: three
// series per shape, x = the swept budgets.
func TestAblationFrontierFigure(t *testing.T) {
	longSweep(t)
	f := AblationFrontier(ablationTestScale)
	if len(f.Series) != 3*len(frontierShapes) {
		t.Fatalf("series = %d, want %d", len(f.Series), 3*len(frontierShapes))
	}
	allPositive(t, f)
	for _, s := range f.Series {
		for i, p := range s.Points {
			if p.Threads != a12SetLines[i] {
				t.Fatalf("series %q x-axis %v, want %v", s.Name, p.Threads, a12SetLines[i])
			}
		}
	}
}
