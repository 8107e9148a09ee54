package bench

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

const ablationTestScale = 0.1

func allPositive(t *testing.T, f Figure) {
	t.Helper()
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: series %q empty", f.ID, s.Name)
		}
		for _, p := range s.Points {
			if p.Throughput <= 0 {
				t.Fatalf("%s: %q at x=%d nonpositive (%v)", f.ID, s.Name, p.Threads, p.Throughput)
			}
		}
	}
}

func TestAblationMindicatorRetries(t *testing.T) {
	f := AblationMindicatorRetries(ablationTestScale)
	allPositive(t, f)
	if len(f.Series) != 2 || len(f.Series[0].Points) != 6 {
		t.Fatalf("unexpected table shape: %+v", f)
	}
}

func TestAblationMoundRetries(t *testing.T) {
	allPositive(t, AblationMoundRetries(ablationTestScale))
}

func TestAblationBSTBudgets(t *testing.T) {
	f := AblationBSTBudgets(ablationTestScale)
	allPositive(t, f)
	// The composition is robust to its budgets: no config should be
	// dramatically worse than another.
	lo, hi := f.Series[0].Points[0].Throughput, f.Series[0].Points[0].Throughput
	for _, p := range f.Series[0].Points {
		if p.Throughput < lo {
			lo = p.Throughput
		}
		if p.Throughput > hi {
			hi = p.Throughput
		}
	}
	if lo < 0.6*hi {
		t.Fatalf("budget sensitivity too high: %v .. %v", lo, hi)
	}
}

func TestAblationCapacityGracefulDegradation(t *testing.T) {
	f := AblationCapacity(ablationTestScale)
	allPositive(t, f)
	pto := byName(f, "Tree (PTO1)")
	lf := byName(f, "Tree (Lockfree)")
	// Crushed capacity: PTO1 must degrade to ≈ the lock-free baseline, not
	// below it (the paper's capacity-obliviousness claim).
	if at(pto, 2) < 0.85*at(lf, 2) {
		t.Fatalf("PTO1 fell below lock-free under crushed capacity: %v vs %v", at(pto, 2), at(lf, 2))
	}
	// Ample capacity: PTO1 must win.
	if at(pto, 4096) <= at(lf, 4096) {
		t.Fatalf("PTO1 not above lock-free at full capacity: %v vs %v", at(pto, 4096), at(lf, 4096))
	}
}

func TestAblationSMTKnee(t *testing.T) {
	f := AblationSMT(ablationTestScale)
	allPositive(t, f)
	smt := byName(f, "SMT factor 1.55 (default)")
	none := byName(f, "SMT factor 1.0 (no sharing)")
	// Identical through 4 threads (distinct cores), divergent beyond.
	for n := 1; n <= 4; n++ {
		if at(smt, n) != at(none, n) {
			t.Fatalf("SMT factor affected ≤4-thread point %d: %v vs %v", n, at(smt, n), at(none, n))
		}
	}
	if at(none, 8) <= at(smt, 8) {
		t.Fatalf("disabling SMT sharing did not help at 8 threads: %v vs %v", at(none, 8), at(smt, 8))
	}
}

func TestAblationComposedMoveSim(t *testing.T) {
	longSweep(t)
	f := AblationComposedMoveSim(ablationTestScale)
	allPositive(t, f)
	// Three historical arms + the caps sweep, then the matrix arms (skiplist
	// pair, skipq+skiplist PQ pair), the batched MoveAll sweep appended by
	// the adapter-contract refactors, and the NBTC publication arm.
	if len(f.Series) != 11 {
		t.Fatalf("unexpected table shape: %+v", f)
	}
	// The NBTC arm runs the same forced-fallback workload with publication
	// collapsed into one commit-time hardware batch instead of 2N claim/
	// release CASes, so at low contention it must not fall below the classic
	// MultiCAS fallback.
	nbtc := byName(f, "Composed (NBTC fallback)")
	fbArm := byName(f, "Composed (MultiCAS fallback)")
	if at(nbtc, 2) < at(fbArm, 2) {
		t.Errorf("NBTC publication below classic MultiCAS at 2 threads: %v vs %v",
			at(nbtc, 2), at(fbArm, 2))
	}
	if pq := byName(f, "Composed skipq+skiplist MoveMin/MoveToPQ (modeled fast path)"); len(pq.Points) != 3 {
		t.Fatalf("PQ matrix arm missing points: %+v", pq)
	}
	fast := byName(f, "Composed (modeled fast path)")
	fb := byName(f, "Composed (MultiCAS fallback)")
	// The modeled machine is deterministic, so the composition claim — the
	// fast path's gap over the MultiCAS fallback — is pinned here.
	for _, threads := range []int{2, 4} {
		if at(fast, threads) <= at(fb, threads) {
			t.Errorf("fast path not above MultiCAS fallback at %d threads: %v vs %v",
				threads, at(fast, threads), at(fb, threads))
		}
	}
	// At 8 threads on the small key range conflicts crush the fast path and
	// the adaptive policy routes operations to the fallback, so the two arms
	// converge; the fast path must not fall materially below it.
	if at(fast, 8) < 0.9*at(fb, 8) {
		t.Errorf("fast path fell below MultiCAS fallback at 8 threads: %v vs %v",
			at(fast, 8), at(fb, 8))
	}
	// Footprint sweep: a 4-word cap aborts every fast-path attempt on
	// capacity (a Move's traversal alone reads more), so the arm rides the
	// fallback, well below the uncapped fast path at low contention; a
	// 64-word cap clears the composed footprint and recovers it.
	tight := byName(f, "Composed (caps 4 words)")
	loose := byName(f, "Composed (caps 64 words)")
	if at(tight, 2) >= at(fast, 2) {
		t.Errorf("4-word cap did not degrade the fast path at 2 threads: %v vs %v",
			at(tight, 2), at(fast, 2))
	}
	if at(loose, 2) < 0.95*at(fast, 2) {
		t.Errorf("64-word cap degraded the fast path at 2 threads: %v vs %v",
			at(loose, 2), at(fast, 2))
	}
}

func TestAblationAdaptivePolicy(t *testing.T) {
	f := AblationAdaptivePolicy(ablationTestScale)
	allPositive(t, f)
	// Four policy/capacity configurations, three thread counts each. No
	// throughput-relation assertions: A6 is wall-clock and this may be a
	// single-CPU box.
	if len(f.Series) != 4 {
		t.Fatalf("unexpected table shape: %+v", f)
	}
	for _, s := range f.Series {
		if len(s.Points) != 3 {
			t.Fatalf("series %q: %d points, want 3", s.Name, len(s.Points))
		}
	}
}

func TestAblationSemantic(t *testing.T) {
	f := AblationSemantic(ablationTestScale)
	// Two throughput series and three rate series, at 2, 4 and 8 threads.
	// No relation assertions: A9 is wall-clock and this may be a single-CPU
	// box, where a rate may well be 0.
	if len(f.Series) != 5 {
		t.Fatalf("unexpected table shape: %+v", f)
	}
	throughputs := 0
	for _, s := range f.Series {
		if len(s.Points) != 3 {
			t.Fatalf("series %q: %d points, want 3", s.Name, len(s.Points))
		}
		tput := strings.HasSuffix(s.Name, "(txns/ms)")
		if tput {
			throughputs++
		}
		for i, p := range s.Points {
			if want := []int{2, 4, 8}[i]; p.Threads != want {
				t.Fatalf("series %q: point %d at %d threads, want %d", s.Name, i, p.Threads, want)
			}
			if !(p.Throughput >= 0) || math.IsInf(p.Throughput, 0) || tput && p.Throughput == 0 {
				t.Errorf("%q at %d threads: %v, want finite and >= 0 (> 0 for throughput)",
					s.Name, p.Threads, p.Throughput)
			}
		}
	}
	if throughputs != 2 {
		t.Fatalf("%d throughput series, want 2", throughputs)
	}
}

func TestAblationThreePath(t *testing.T) {
	longSweep(t)
	f := AblationThreePath(ablationTestScale)
	allPositive(t, f)
	// Two modeled arms and two wall-clock arms, three thread counts each.
	if len(f.Series) != 4 {
		t.Fatalf("unexpected table shape: %+v", f)
	}
	for _, s := range f.Series {
		if len(s.Points) != 3 {
			t.Fatalf("series %q: %d points, want 3", s.Name, len(s.Points))
		}
	}
	// No wall-clock throughput relations (this may be a single-CPU box); the
	// deterministic modeled arms carry the acceptance bit.
	sample := ThreePathSample(ablationTestScale)
	if sample.Helped == 0 {
		t.Fatal("modeled three-path arm helped no descriptors: middle tier never ran")
	}
	if !sample.MiddlePathOK {
		t.Fatalf("middle path lost to fast+slow at every thread count: %+v", sample)
	}
	again := ThreePathSample(ablationTestScale)
	if !reflect.DeepEqual(sample, again) {
		t.Fatalf("modeled A10 not deterministic:\n%+v\n%+v", sample, again)
	}
}

func TestExtensionList(t *testing.T) {
	longSweep(t)
	f := ExtList(34, ablationTestScale)
	allPositive(t, f)
	lf := byName(f, "List (Lockfree+HP)")
	pto := byName(f, "List (PTO)")
	// Hazard elision dominates the short-list workload at one thread.
	if at(pto, 1) < 2*at(lf, 1) {
		t.Fatalf("hazard elision gain missing: %v vs %v", at(pto, 1), at(lf, 1))
	}
}

func TestExtensionQueue(t *testing.T) {
	f := ExtQueue(ablationTestScale)
	allPositive(t, f)
	lf := byName(f, "MSQueue (Lockfree)")
	pto := byName(f, "MSQueue (PTO)")
	// A single hot spot leaves nothing to win, but PTO must not lose
	// significantly at any point.
	for _, n := range []int{1, 4, 8} {
		if at(pto, n) < 0.85*at(lf, n) {
			t.Fatalf("queue PTO lost at %d threads: %v vs %v", n, at(pto, n), at(lf, n))
		}
	}
}
