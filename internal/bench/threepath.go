package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/htm"
	"repro/internal/list"
	"repro/internal/sim"
	"repro/internal/simds"
	"repro/internal/simspec"
	"repro/internal/simtxn"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// Ablation A10: the three-path speculation shape (fast / helping-middle /
// slow) under the occupied-fallback adversary — one thread pinned to the
// MultiCAS slow path (ForceFallback) while the remaining threads speculate
// over the same narrow hot key range. The adversary keeps undecided
// descriptors parked mid-publication for speculators to collide with:
//
//   - Fast+slow only (the historical two-path shape): a fast-path attempt
//     that meets an undecided descriptor either kills it at commit (real
//     runtime — the adversary's publication fails and all its capture and
//     claim work is wasted; under a wide enough collision surface it
//     starves outright) or aborts and defers (modeled substrate — the
//     speculator burns its budget and lands on the fallback, stacking more
//     descriptors).
//
//   - Three-path (WithMiddle): the fast level defers instead of killing
//     (speculate.Run.Try derives it from the shape), and the middle
//     level's attempts drive the parked descriptor to decision — at commit
//     time on the real runtime (htm.AtomicallyHelping's pre-lock pass),
//     between attempts on the modeled substrate — bounded by the level's helping budget, so the
//     adversary's publication completes and the speculator commits right
//     behind it.
//
// Throughput counts every thread's completed Moves, adversary included: the
// claim under test is that helping turns the adversary's wasted retries
// into finished operations without costing the speculators theirs. The
// modeled arms are deterministic; the wall-clock arms vary with the host
// (emitted, like A6 and A9, only under -ablations or by ID). The
// three-path series names carry the helped-descriptor totals
// ("helped_descs=N") as the middle-path witness: N > 0 proves the helping
// tier actually ran.
const (
	a10HotKeys = 8
	// a10WallWindow is the wall-clock measurement window per point at scale
	// 1.0.
	a10WallWindow = 100 * time.Millisecond
)

// a10Threads are the measured thread counts (one of which is the pinned
// adversary).
var a10Threads = []int{2, 4, 8}

// AblationThreePath regenerates the full A10 table: modeled arms first
// (deterministic), then the wall-clock arms.
func AblationThreePath(scale float64) Figure {
	f := Figure{
		ID:     "Ablation A10",
		Title:  "Occupied-fallback adversary: fast+slow vs three-path helping middle (1 thread pinned to MultiCAS)",
		YLabel: "ops/ms",
	}
	sample := ThreePathSample(scale)
	f.Series = append(f.Series, Series{Name: "Fast+slow only (modeled)", Points: sample.FastSlow})
	f.Series = append(f.Series, Series{
		Name:   fmt.Sprintf("Three-path helping middle (modeled, helped_descs=%d)", sample.Helped),
		Points: sample.ThreePath,
	})

	var helpedWall uint64
	for _, arm := range []struct {
		name   string
		middle bool
	}{
		{"Fast+slow only (wall clock)", false},
		{"Three-path helping middle (wall clock)", true},
	} {
		s := Series{Name: arm.name}
		for _, threads := range a10Threads {
			tput, helped := measureOccupiedReal(threads, scaledWall(scale), arm.middle)
			helpedWall += helped
			s.Points = append(s.Points, Point{Threads: threads, Throughput: tput})
		}
		if arm.middle {
			s.Name = fmt.Sprintf("Three-path helping middle (wall clock, helped_descs=%d)", helpedWall)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// ThreePathResult is the deterministic (modeled) slice of A10: both arms'
// curves, the helped-descriptor total
// of the three-path arm, and the acceptance bit — the middle path beats the
// fast+slow-only shape under the adversary on at least one thread count.
type ThreePathResult struct {
	FastSlow  []Point
	ThreePath []Point
	// Helped is the total helped-descriptor count across the three-path
	// arm's points (telemetry counter pto_speculation_helped_descs_total).
	Helped uint64
	// MiddlePathOK reports ThreePath > FastSlow at ≥ 1 thread count AND
	// Helped > 0 — the A10 acceptance bit.
	MiddlePathOK bool
}

// ThreePathSample runs the modeled arms of A10 and returns the
// deterministic result row.
func ThreePathSample(scale float64) ThreePathResult {
	w := scaled(windowSet, scale)
	var r ThreePathResult
	for _, threads := range a10Threads {
		r.FastSlow = append(r.FastSlow, Point{Threads: threads, Throughput: measure(threads, w, buildOccupiedSim(false, nil))})
	}
	for _, threads := range a10Threads {
		var reg *telemetry.Registry
		tput := measure(threads, w, buildOccupiedSim(true, &reg))
		r.ThreePath = append(r.ThreePath, Point{Threads: threads, Throughput: tput})
		r.Helped += reg.Site("simtxn/atomic/middle").Snapshot().Helped
	}
	for i := range r.ThreePath {
		if r.ThreePath[i].Throughput > r.FastSlow[i].Throughput {
			r.MiddlePathOK = true
		}
	}
	r.MiddlePathOK = r.MiddlePathOK && r.Helped > 0
	return r
}

// buildOccupiedSim stages the modeled occupied-fallback workload: thread 0
// drives random-direction Moves through a force-fallback manager (the
// adversary), every other thread through the speculating manager — two-path
// when middle is false, three-path (default middle attempts and helping
// budget) when true. Both managers publish into the same simulated
// structures, so the adversary's in-flight MultiCAS claims are exactly what
// the speculators' attempts trip on. regOut, when non-nil, receives the
// speculating manager's private telemetry registry.
func buildOccupiedSim(middle bool, regOut **telemetry.Registry) buildFunc {
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		reg := telemetry.NewRegistry()
		if regOut != nil {
			*regOut = reg
		}
		spec := simtxn.New(0).WithPolicy(simspec.DefaultPolicy().WithMetrics(reg))
		if middle {
			spec.WithMiddle(0, 0)
		}
		adv := simtxn.New(0).ForceFallback(true)
		b := simds.NewSimBST(setup, simds.BSTPTO12, false, m.Config().Threads)
		h := simds.NewSimHash(setup, simds.HashPTO, 16, m.Config().Threads)
		h.Stabilize(setup)
		prefillSet(setup, a10HotKeys, b.Insert)
		return func(t *sim.Thread) {
			t.Work(opOverhead)
			mgr := spec
			if t.ID() == 0 {
				mgr = adv
			}
			x := t.Rand()
			k := x%a10HotKeys + 1
			if x>>40&1 == 0 {
				simtxn.Move(mgr, t, b, h, k)
			} else {
				simtxn.Move(mgr, t, h, b, k)
			}
		}
	}
}

// scaledWall shrinks the wall-clock window like scaled() shrinks the
// simulated one, with a floor so a smoke run still completes operations.
func scaledWall(scale float64) time.Duration {
	d := time.Duration(float64(a10WallWindow) * scale)
	if d < 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	return d
}

// measureOccupiedReal is the wall-clock twin: threads goroutines over a
// Harris-list pair in one HTM domain, goroutine 0 pinned to the MultiCAS
// slow path through a second force-fallback manager, the rest speculating.
// Two harness choices make the collision the ablation measures actually
// occur on a small (even single-core) host, where goroutines time-slice
// and rarely overlap mid-protocol by luck alone: the adversary parks
// (FallbackPark → Gosched) between each publication's claim phase and its
// decision, which is exactly the preemption the paper's pathology needs,
// and every worker yields once per operation so the scheduler interleaves
// the workers through those windows. The run is time-bound (not ops-bound)
// because the adversary may complete nothing at all under the fast path's
// kill-paid-by-commit rule — that starvation is the measured pathology, and
// it must not hang the harness. Returns total completed Moves per
// millisecond across all threads, plus the helped-descriptor count when the
// middle tier is on.
func measureOccupiedReal(threads int, window time.Duration, middle bool) (float64, uint64) {
	const prefill = a10HotKeys
	// Small fast budget in BOTH arms: under the adversary the fast level
	// mostly defer-aborts (three-path) or kills (two-path), so a long fast
	// walk is pure waste either way and would drown the arms' difference.
	const fastAttempts = 1
	reg := telemetry.NewRegistry()
	d := htm.NewDomain(0, 0)
	pol := speculate.Fixed(0).WithMetrics(reg)
	spec := txn.NewIn(d, fastAttempts).WithPolicy(pol)
	if middle {
		spec.WithMiddle(0, 0)
	}
	w := &wallRun{threads: threads, window: window}
	adv := txn.NewIn(d, 0).ForceFallback(true).FallbackPark(func() {
		// A few yields, not one: the window must span enough scheduler
		// slots for a speculator to actually run inside it. Once the
		// measurement ends the window closes immediately, so an adversary
		// whose publications keep getting killed still drains and exits.
		for i := 0; i < 8 && !w.stop.Load(); i++ {
			runtime.Gosched()
		}
	})
	src := list.NewPTOIn(d, 0)
	dst := list.NewPTOIn(d, 0)
	hot := make([]int64, 0, prefill)
	for k := int64(1); k <= prefill; k++ {
		kk := k
		spec.Atomic(func(c *txn.Ctx) { src.TxInsert(c, kk) })
		hot = append(hot, kk)
	}

	tput := w.run(func(g int, rnd uint64) int64 {
		n := int64(1)
		if g == 0 {
			// The adversary publishes WIDE: one MultiCAS over every hot
			// key it can move. A killed publication therefore wastes a
			// whole batch's capture and claim work, and a helped one
			// completes a whole batch — the contrast the ablation
			// measures. Completed Moves count per key.
			if rnd&(1<<40) != 0 {
				n = int64(txn.MoveAll(adv, src, dst, hot...))
			} else {
				n = int64(txn.MoveAll(adv, dst, src, hot...))
			}
		} else {
			k := int64(rnd%a10HotKeys) + 1
			if rnd&(1<<40) != 0 {
				txn.Move(spec, src, dst, k)
			} else {
				txn.Move(spec, dst, src, k)
			}
		}
		runtime.Gosched()
		return n
	})
	var helped uint64
	if middle {
		helped = reg.Site("txn/atomic/middle").Snapshot().Helped
	}
	return tput, helped
}
