package bench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simds"
	"repro/internal/simtxn"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// AblationComposedMoveSim (A8) measures the transactional composition layer
// on the modeled machine: concurrent cross-structure Moves between a
// simulated BST and a simulated hash table, completed three different ways.
//
//   - "Composed (modeled fast path)": each Move commits inside one modeled
//     prefix transaction spanning both structures (simtxn's fast path).
//   - "Composed (MultiCAS fallback)": the fast path is disabled, so every
//     Move runs the capture pass and publishes through the modeled N-word
//     MultiCAS — the same descriptor-and-helping protocol in simulated
//     memory, costed in cycles.
//   - "Two-spinlock locking": each structure guarded by a test-and-set spin
//     lock in simulated memory, a Move holding both in a fixed global order.
//
// A8 reports deterministic modeled cycles, so the fast-path-over-fallback
// gap — the paper's acceleration claim lifted to composition — is pinned by
// a test; the benchmark's lib-compose workload measures the same gap on the
// Go runtime (its pto_speedup). Both composed arms drive the same speculation
// engine (speculate.Site through a simspec.Site) as every simds structure,
// and surface the same telemetry counters under the "simtxn/atomic" site.
func AblationComposedMoveSim(scale float64) Figure {
	w := scaled(windowSet, scale)
	f := Figure{
		ID:     "Ablation A8",
		Title:  "Composed cross-structure Move, modeled machine: fast path vs MultiCAS vs locking",
		YLabel: "ops/ms",
	}
	modes := []struct {
		name string
		mode composeMode
	}{
		{"Composed (modeled fast path)", composeFast},
		{"Composed (MultiCAS fallback)", composeFallback},
		{"Two-spinlock locking", composeLocked},
	}
	for _, m := range modes {
		s := Series{Name: m.name}
		for _, threads := range []int{2, 4, 8} {
			tput := measure(threads, w, buildComposedMoveSim(newManager, m.mode))
			s.Points = append(s.Points, Point{Threads: threads, Throughput: tput})
		}
		f.Series = append(f.Series, s)
	}
	// Matrix arm: the same experiment over the simulated skiplist pair (the
	// adapter the shared contract added on this substrate). Appended after
	// the historical series so their figures stay bit-for-bit.
	skip := Series{Name: "Composed skiplist pair (modeled fast path)"}
	for _, threads := range []int{2, 4, 8} {
		tput := measure(threads, w, buildComposedSkipMoveSim())
		skip.Points = append(skip.Points, Point{Threads: threads, Throughput: tput})
	}
	f.Series = append(f.Series, skip)
	// PQ arm: MoveMin/MoveToPQ over the simulated skip-based priority queue
	// and a skiplist set, the priority-queue corner of the adapter matrix.
	// Appended after the historical series so their figures stay
	// bit-for-bit.
	pqArm := Series{Name: "Composed skipq+skiplist MoveMin/MoveToPQ (modeled fast path)"}
	for _, threads := range []int{2, 4, 8} {
		tput := measure(threads, w, buildComposedSkipQMoveSim())
		pqArm.Points = append(pqArm.Points, Point{Threads: threads, Throughput: tput})
	}
	f.Series = append(f.Series, pqArm)
	// Batched sweep: one composed operation moves k keys, amortizing one
	// modeled prefix transaction (or one N-word MultiCAS) across the batch;
	// throughput stays in key-move attempts per ms for comparability.
	for _, k := range []int{4, 16} {
		s := Series{Name: fmt.Sprintf("Composed batched MoveAll (k=%d)", k)}
		for _, threads := range []int{2, 4, 8} {
			tput := measure(threads, w, buildComposedMoveAllSim(newManager, k)) * float64(k)
			s.Points = append(s.Points, Point{Threads: threads, Throughput: tput})
		}
		f.Series = append(f.Series, s)
	}
	// NBTC arm: the MultiCAS fallback with publication deferred into one
	// commit-time hardware batch (simtxn.WithNBTC) — the Cai/Wen/Scott
	// commit mode as a fourth completion strategy next to fast/fallback/
	// locked. Appended after the historical series so their figures stay
	// bit-for-bit.
	nbtcArm := Series{Name: "Composed (NBTC fallback)"}
	for _, threads := range []int{2, 4, 8} {
		tput := measure(threads, w, buildComposedMoveSim(newManager, composeNBTC))
		nbtcArm.Points = append(nbtcArm.Points, Point{Threads: threads, Throughput: tput})
	}
	f.Series = append(f.Series, nbtcArm)
	return f
}

// BatchedMoveAmortization moves keys 1..64 from a simulated BST to a hash
// table on a single-thread machine — batch ≤ 1 as independent Moves,
// otherwise as MoveAll calls over batch-sized slices — and returns the
// number of atomic publications (fast-path commits plus MultiCAS fallbacks)
// and keys moved. The machine is deterministic, so the counts reproduce
// bit-for-bit: they pin the batched-Move acceptance claim (fewer prefix
// transactions per moved key than k independent Moves) in the test suite.
func BatchedMoveAmortization(batch int) (publications uint64, moved int) {
	const keys = 64
	reg := telemetry.NewRegistry()
	m := sim.New(sim.DefaultConfig(1))
	setup := m.Thread(0)
	mgr := simtxn.New(0).WithPolicy(speculate.Fixed(0).WithMetrics(reg))
	b := simds.NewSimBST(setup, simds.BSTPTO12, false, 1)
	h := simds.NewSimHash(setup, simds.HashPTO, 16, 1)
	h.Stabilize(setup)
	for k := uint64(1); k <= keys; k++ {
		b.Insert(setup, k)
	}
	m.Run(func(th *sim.Thread) {
		if batch <= 1 {
			for k := uint64(1); k <= keys; k++ {
				if simtxn.Move(mgr, th, b, h, k) {
					moved++
				}
			}
			return
		}
		for lo := uint64(1); lo <= keys; lo += uint64(batch) {
			var ks []uint64
			for k := lo; k < lo+uint64(batch) && k <= keys; k++ {
				ks = append(ks, k)
			}
			moved += simtxn.MoveAll(mgr, th, b, h, ks...)
		}
	})
	s := reg.Site("simtxn/atomic").Snapshot()
	return s.Commits + s.Fallbacks, moved
}

// composeMode is how a composed arm completes its Moves.
type composeMode int

const (
	composeFast composeMode = iota
	composeFallback
	composeLocked
	// composeNBTC is forced fallback with NBTC commit-time batch
	// publication (simtxn.WithNBTC).
	composeNBTC
)

// newManager is a composed-layer manager on simtxn's own defaults: A8's, and
// A12's RTM baseline.
func newManager() *simtxn.Manager { return simtxn.New(0) }

// buildComposedMoveSim prefills half the key range into the tree and runs
// random-direction Moves between tree and hash table. The composed arms keep
// the closed world the simtxn adapters require: while the machine runs, the
// two structures are mutated only through the composition layer. newMgr
// builds the composed arms' manager.
func buildComposedMoveSim(newMgr func() *simtxn.Manager, mode composeMode) buildFunc {
	const keyRange = 256
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		if mode == composeLocked {
			b := simds.NewSimBST(setup, simds.BSTLockfree, false, m.Config().Threads)
			h := simds.NewSimHash(setup, simds.HashLF, 64, m.Config().Threads)
			prefillSet(setup, keyRange, b.Insert)
			// One spin lock per structure, always acquired tree-first
			// regardless of Move direction, so the baseline is deadlock-free
			// without an ordering protocol.
			muB := setup.Alloc(1)
			muH := setup.Alloc(1)
			lock := func(t *sim.Thread, a sim.Addr) {
				for !t.CAS(a, 0, 1) {
					t.Work(16)
				}
			}
			return func(t *sim.Thread) {
				t.Work(opOverhead)
				x := t.Rand()
				k := x%keyRange + 1
				lock(t, muB)
				lock(t, muH)
				if x>>40&1 == 0 {
					if !h.Contains(t, k) && b.Remove(t, k) {
						h.Insert(t, k)
					}
				} else {
					if !b.Contains(t, k) && h.Remove(t, k) {
						b.Insert(t, k)
					}
				}
				t.Store(muH, 0)
				t.Store(muB, 0)
			}
		}
		mgr := newMgr()
		if mode == composeFallback || mode == composeNBTC {
			mgr.ForceFallback(true)
		}
		if mode == composeNBTC {
			mgr.WithNBTC(true)
		}
		b := simds.NewSimBST(setup, simds.BSTPTO12, false, m.Config().Threads)
		h := simds.NewSimHash(setup, simds.HashPTO, 64, m.Config().Threads)
		h.Stabilize(setup)
		prefillSet(setup, keyRange, b.Insert)
		return func(t *sim.Thread) {
			t.Work(opOverhead)
			x := t.Rand()
			k := x%keyRange + 1
			if x>>40&1 == 0 {
				simtxn.Move(mgr, t, b, h, k)
			} else {
				simtxn.Move(mgr, t, h, b, k)
			}
		}
	}
}

// buildComposedSkipMoveSim prefills half the key range into one simulated
// skiplist and runs random-direction Moves between the pair on the modeled
// fast path (closed world: the pair is mutated only through the layer).
func buildComposedSkipMoveSim() buildFunc {
	const keyRange = 256
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		mgr := simtxn.New(0)
		s1 := simds.NewSimSkip(setup, false, m.Config().Threads)
		s2 := simds.NewSimSkip(setup, false, m.Config().Threads)
		prefillSet(setup, keyRange, s1.Insert)
		return func(t *sim.Thread) {
			t.Work(opOverhead)
			x := t.Rand()
			k := x%keyRange + 1
			if x>>40&1 == 0 {
				simtxn.Move(mgr, t, s1, s2, k)
			} else {
				simtxn.Move(mgr, t, s2, s1, k)
			}
		}
	}
}

// buildComposedSkipQMoveSim prefills half the key range into a simulated
// skip-based priority queue and mixes MoveMin (drain the minimum into a
// skiplist set) with MoveToPQ (send a random set key back) on the modeled
// fast path. Closed world: both structures are mutated only through the
// composition layer while the machine runs.
func buildComposedSkipQMoveSim() buildFunc {
	const keyRange = 256
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		mgr := simtxn.New(0)
		pq := simds.NewSimSkipQ(setup, false, m.Config().Threads)
		set := simds.NewSimSkip(setup, false, m.Config().Threads)
		for i := 0; i < keyRange/2; i++ {
			pq.Push(setup, splitmixRand(uint64(i))%keyRange+1)
		}
		return func(t *sim.Thread) {
			t.Work(opOverhead)
			x := t.Rand()
			if x>>40&1 == 0 {
				simtxn.MoveMin(mgr, t, pq, set)
			} else {
				simtxn.MoveToPQ(mgr, t, set, pq, x%keyRange+1)
			}
		}
	}
}

// buildComposedMoveAllSim is buildComposedMoveSim's batched twin: each op is
// one MoveAll over k keys derived deterministically from the thread's random
// draw. The measure() figure counts composed ops; the caller scales by k to
// report key-move attempts.
func buildComposedMoveAllSim(newMgr func() *simtxn.Manager, k int) buildFunc {
	const keyRange = 256
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		mgr := newMgr()
		b := simds.NewSimBST(setup, simds.BSTPTO12, false, m.Config().Threads)
		h := simds.NewSimHash(setup, simds.HashPTO, 64, m.Config().Threads)
		h.Stabilize(setup)
		prefillSet(setup, keyRange, b.Insert)
		return func(t *sim.Thread) {
			t.Work(opOverhead)
			x := t.Rand()
			keys := make([]uint64, k)
			for i := range keys {
				keys[i] = (x+uint64(i)*0x9E3779B9)%keyRange + 1
			}
			if x>>40&1 == 0 {
				simtxn.MoveAll(mgr, t, b, h, keys...)
			} else {
				simtxn.MoveAll(mgr, t, h, b, keys...)
			}
		}
	}
}
