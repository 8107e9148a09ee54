package bench

import (
	"strings"
	"testing"
)

// Shape tests: small-scale runs asserting the qualitative results the paper
// reports — who wins, where, and by roughly how much. EXPERIMENTS.md records
// the full-scale numbers; these tests keep the shapes from regressing.

const testScale = 0.2

// longSweep skips, under -short, the tests that take longest: the
// full-thread-range sweeps of Figures 2(b)-5, A8, A10, A12, the list
// extension and the golden file. What -short keeps runs in about 3 s; tier-1
// and CI run everything.
func longSweep(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("long sweep: skipped under -short")
	}
}

func at(s Series, threads int) float64 {
	for _, p := range s.Points {
		if p.Threads == threads {
			return p.Throughput
		}
	}
	panic("missing point")
}

func byName(f Figure, name string) Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	panic("missing series " + name)
}

func TestFig2aShape(t *testing.T) {
	f := Fig2a(testScale)
	lf := byName(f, "Mindicator (Lockfree)")
	pto := byName(f, "Mindicator (PTO)")
	tle := byName(f, "Mindicator (TLE)")
	// PTO provides near-TLE latency at one thread, well above lock-free.
	if at(pto, 1) < 1.2*at(lf, 1) {
		t.Errorf("PTO single-thread latency advantage missing: %v vs %v", at(pto, 1), at(lf, 1))
	}
	if r := at(pto, 1) / at(tle, 1); r < 0.9 || r > 1.1 {
		t.Errorf("PTO not near TLE at one thread: ratio %.2f", r)
	}
	// TLE collapses under concurrency; PTO keeps scaling.
	if at(tle, 8) > 0.5*at(tle, 1) {
		t.Errorf("TLE did not collapse: %v at 8 vs %v at 1", at(tle, 8), at(tle, 1))
	}
	if at(pto, 8) < 1.6*at(pto, 1) {
		t.Errorf("PTO did not scale: %v at 8 vs %v at 1", at(pto, 8), at(pto, 1))
	}
	// Beyond the core count PTO outperforms lock-free (the paper's §4.2).
	if at(pto, 8) < at(lf, 8) {
		t.Errorf("PTO below lock-free at 8 threads: %v vs %v", at(pto, 8), at(lf, 8))
	}
}

func TestFig2bShape(t *testing.T) {
	longSweep(t)
	f := Fig2b(testScale)
	mlf := byName(f, "Mound (Lockfree)")
	mpto := byName(f, "Mound (PTO)")
	slf := byName(f, "SkipQ (Lockfree)")
	spto := byName(f, "SkipQ (PTO)")
	// The Mound gains a latency constant from transactional DCAS.
	if at(mpto, 1) < 1.3*at(mlf, 1) {
		t.Errorf("Mound PTO latency gain missing: %v vs %v", at(mpto, 1), at(mlf, 1))
	}
	// The skiplist queue neither gains nor significantly loses.
	for _, n := range []int{1, 4, 8} {
		r := at(spto, n) / at(slf, n)
		if r < 0.85 || r > 1.25 {
			t.Errorf("SkipQ PTO/LF ratio at %d threads = %.2f, want ≈1", n, r)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	longSweep(t)
	f := Fig3(0, testScale)
	tlf := byName(f, "Tree (Lockfree)")
	tpto := byName(f, "Tree (PTO)")
	slf := byName(f, "Skip (Lockfree)")
	spto := byName(f, "Skip (PTO)")
	for _, n := range []int{1, 4, 8} {
		// The accelerated tree beats its baseline and the skiplist.
		if at(tpto, n) <= at(tlf, n) {
			t.Errorf("Tree PTO not above Tree LF at %d threads", n)
		}
		if at(tpto, n) <= 0.95*at(spto, n) {
			t.Errorf("Tree PTO below Skip at %d threads", n)
		}
		// The skiplist is unimproved but not significantly slowed.
		r := at(spto, n) / at(slf, n)
		if r < 0.9 || r > 1.1 {
			t.Errorf("Skip PTO/LF at %d threads = %.2f, want ≈1", n, r)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	longSweep(t)
	writeOnly := Fig4(0, testScale)
	lf := byName(writeOnly, "Hash (Lockfree)")
	inplace := byName(writeOnly, "Hash (PTO+Inplace)")
	// Write-only: in-place updates give a large speedup that grows with
	// thread count (the allocator bottleneck).
	r1 := at(inplace, 1) / at(lf, 1)
	r8 := at(inplace, 8) / at(lf, 8)
	if r1 < 1.3 {
		t.Errorf("write-only in-place speedup at 1 thread = %.2f, want ≥1.3", r1)
	}
	if r8 < r1 {
		t.Errorf("in-place speedup did not grow with threads: %.2f at 1 vs %.2f at 8", r1, r8)
	}

	readOnly := Fig4(100, testScale)
	lfr := byName(readOnly, "Hash (Lockfree)")
	ptor := byName(readOnly, "Hash (PTO)")
	// Read-only: transactional lookups elide the reclaimer and win.
	if at(ptor, 1) <= at(lfr, 1) {
		t.Errorf("PTO lookup not above LF lookup: %v vs %v", at(ptor, 1), at(lfr, 1))
	}
}

func TestFig5aShape(t *testing.T) {
	longSweep(t)
	f := Fig5a(testScale)
	pto1 := byName(f, "PTO1")
	both := byName(f, "PTO1+PTO2")
	// PTO1 and the composition improve at every thread count; the
	// composition tracks the best component.
	for _, n := range []int{1, 4, 8} {
		if at(pto1, n) <= 0 {
			t.Errorf("PTO1 improvement at %d threads = %.1f%%, want > 0", n, at(pto1, n))
		}
		if at(both, n) < at(pto1, n)-6 {
			t.Errorf("composition far below PTO1 at %d threads: %.1f vs %.1f", n, at(both, n), at(pto1, n))
		}
	}
}

func TestFig5bShape(t *testing.T) {
	longSweep(t)
	f := Fig5b(testScale)
	withF := byName(f, "PTO(Fence)")
	noF := byName(f, "PTO(NoFence)")
	// Fence elision is the dominant source of the Mound's gain.
	for _, n := range []int{1, 2, 4} {
		if at(noF, n) <= at(withF, n) {
			t.Errorf("fence elision gained nothing at %d threads: %.1f vs %.1f", n, at(noF, n), at(withF, n))
		}
	}
}

func TestFig5cShape(t *testing.T) {
	longSweep(t)
	f := Fig5c(testScale)
	withF := byName(f, "PTO(Fence)")
	noF := byName(f, "PTO(NoFence)")
	// Fences are a component (not the whole) of the BST's gain: both modes
	// improve, the unfenced one more at low threads.
	if at(withF, 1) <= 0 {
		t.Errorf("fenced PTO shows no baseline improvement: %.1f", at(withF, 1))
	}
	if at(noF, 1) <= at(withF, 1) {
		t.Errorf("fence elision contributed nothing at 1 thread: %.1f vs %.1f", at(noF, 1), at(withF, 1))
	}
}

func TestDeterministicFigures(t *testing.T) {
	a := Fig2a(0.05)
	b := Fig2a(0.05)
	for i := range a.Series {
		for j := range a.Series[i].Points {
			if a.Series[i].Points[j] != b.Series[i].Points[j] {
				t.Fatalf("figure not reproducible at series %d point %d", i, j)
			}
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	f := Figure{ID: "Figure X", Title: "test", YLabel: "ops/ms",
		Series: []Series{{Name: "a", Points: []Point{{1, 10}, {2, 20}}}}}
	out := Render(f)
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "10.0") {
		t.Errorf("render output wrong:\n%s", out)
	}
	csv := CSV(f)
	if !strings.Contains(csv, "Figure X,a,2,20.000") {
		t.Errorf("csv output wrong:\n%s", csv)
	}
}

func TestImprovement(t *testing.T) {
	base := Series{Name: "b", Points: []Point{{1, 100}, {2, 200}}}
	v := Series{Name: "v", Points: []Point{{1, 150}, {2, 150}}}
	imp := Improvement(v, base)
	if imp.Points[0].Throughput != 50 || imp.Points[1].Throughput != -25 {
		t.Fatalf("improvement = %+v", imp.Points)
	}
}
