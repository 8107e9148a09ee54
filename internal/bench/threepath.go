package bench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simds"
	"repro/internal/simspec"
	"repro/internal/simtxn"
	"repro/internal/telemetry"
)

// Ablation A10: the three-path speculation shape (fast / helping-middle /
// slow) under the occupied-fallback adversary, on the modeled machine — one
// thread pinned to the MultiCAS slow path (ForceFallback) while the remaining
// threads speculate over the same narrow hot key range. The adversary keeps
// undecided descriptors parked mid-publication for speculators to collide
// with:
//
//   - Fast+slow only (the historical two-path shape): a fast-path attempt
//     that meets an undecided descriptor aborts and defers — the speculator
//     burns its budget and lands on the fallback, stacking more descriptors.
//
//   - Three-path (simtxn's WithMiddle): the middle level's attempts drive the
//     parked descriptor to decision between attempts, bounded by the level's
//     helping budget, so the adversary's publication completes and the
//     speculator commits right behind it.
//
// Throughput counts every thread's completed Moves, adversary included: the
// claim under test is that helping turns the adversary's wasted retries
// into finished operations without costing the speculators theirs. Both arms
// are deterministic. The three-path series name carries the helped-descriptor
// total ("helped_descs=N") as the middle-path witness: N > 0 proves the
// helping tier actually ran. The runtime commits one way (kill-paid-by-commit)
// and has no middle tier to measure.
const a10HotKeys = 8

// a10Threads are the measured thread counts (one of which is the pinned
// adversary).
var a10Threads = []int{2, 4, 8}

// AblationThreePath regenerates the A10 table: both modeled arms.
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
