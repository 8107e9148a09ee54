package bench

import (
	"fmt"
	"repro/internal/sim"
	"repro/internal/simds"
)

// Simulated-duration windows per figure (cycles). Scaled by the caller's
// scale factor: 1.0 for the full runs recorded in EXPERIMENTS.md, smaller
// for quick checks.
const (
	windowMind = 1_500_000
	windowPQ   = 2_000_000
	windowSet  = 2_500_000
	windowHash = 2_500_000
)

// opOverhead models the benchmark harness's per-operation instruction cost
// (random number generation, loop control, dispatch) — identical for every
// variant, as in the paper's microbenchmarks.
const opOverhead = 60

func scaled(w uint64, scale float64) uint64 {
	if scale <= 0 {
		scale = 1
	}
	s := uint64(float64(w) * scale)
	if s < 50_000 {
		s = 50_000
	}
	return s
}

// Fig2a reproduces Figure 2(a): the Mindicator microbenchmark (mbench) with
// a 64-leaf tree and the default left-to-right slot mapping, comparing the
// lock-free baseline, PTO, and TLE.
func Fig2a(scale float64) Figure {
	w := scaled(windowMind, scale)
	mk := func(kind simds.MindKind) buildFunc {
		return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
			mi := simds.NewMindicator(setup, kind, 64)
			return func(t *sim.Thread) {
				t.Work(opOverhead)
				mi.Arrive(t, t.ID(), int32(t.Rand()%100000))
				mi.Depart(t, t.ID())
			}
		}
	}
	return Figure{
		ID:     "Figure 2(a)",
		Title:  "Mindicator microbenchmark (mbench, 64 leaves)",
		YLabel: "ops/ms",
		Series: []Series{
			sweep("Mindicator (Lockfree)", w, mk(simds.MindLockfree)),
			sweep("Mindicator (PTO)", w, mk(simds.MindPTO)),
			sweep("Mindicator (TLE)", w, mk(simds.MindTLE)),
		},
	}
}

// pqPrefill is the steady-state working set for the priority queue runs.
const pqPrefill = 4096

// pqRange is the random priority range for pqbench.
const pqRange = 1 << 18

func moundBuild(pto, keepFences bool) buildFunc {
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		q := simds.NewSimMound(setup, pto, keepFences, 15)
		for i := 0; i < pqPrefill; i++ {
			q.Insert(setup, splitmixRand(uint64(i))%pqRange)
		}
		return func(t *sim.Thread) {
			t.Work(opOverhead)
			x := t.Rand()
			if x&1 == 0 {
				q.Insert(t, x>>20%pqRange)
			} else {
				q.RemoveMin(t)
			}
		}
	}
}

func skipqBuild(pto bool) buildFunc {
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		q := simds.NewSimSkipQ(setup, pto, m.Config().Threads)
		for i := 0; i < pqPrefill; i++ {
			q.Push(setup, splitmixRand(uint64(i))%pqRange)
		}
		return func(t *sim.Thread) {
			t.Work(opOverhead)
			x := t.Rand()
			if x&1 == 0 {
				q.Push(t, x>>20%pqRange)
			} else {
				q.Pop(t)
			}
		}
	}
}

// Fig2b reproduces Figure 2(b): pqbench (even mix of push and pop with
// random keys) on the Mound and the skiplist priority queue, baseline vs.
// PTO.
func Fig2b(scale float64) Figure {
	w := scaled(windowPQ, scale)
	return Figure{
		ID:     "Figure 2(b)",
		Title:  "Priority queue microbenchmark (pqbench)",
		YLabel: "ops/ms",
		Series: []Series{
			sweep("Mound (Lockfree)", w, moundBuild(false, false)),
			sweep("Mound (PTO)", w, moundBuild(true, false)),
			sweep("SkipQ (Lockfree)", w, skipqBuild(false)),
			sweep("SkipQ (PTO)", w, skipqBuild(true)),
		},
	}
}

// setOp returns a setbench operation body over generic set methods.
func setOp(lookupPct int, keyRange uint64,
	insert, remove func(t *sim.Thread, k uint64) bool,
	contains func(t *sim.Thread, k uint64) bool) func(t *sim.Thread) {
	return func(t *sim.Thread) {
		t.Work(opOverhead)
		// One draw decides both the key and the operation: using separate
		// consecutive draws would make the operation a deterministic
		// function of the key (xorshift is a bijection), freezing the set.
		x := t.Rand()
		k := x%keyRange + 1
		r := int(x >> 40 % 100)
		switch {
		case r < lookupPct:
			contains(t, k)
		case x>>52&1 == 0:
			insert(t, k)
		default:
			remove(t, k)
		}
	}
}

// prefillSet inserts every other key so the set sits at half range. Keys go
// in pseudo-random (shuffled) order so comparison-based structures start
// balanced, as random-order prefill gives the paper's benchmarks.
func prefillSet(setup *sim.Thread, keyRange uint64, insert func(t *sim.Thread, k uint64) bool) {
	m := keyRange / 2 // power of two
	for i := uint64(0); i < m; i++ {
		k := ((i*0x9E3779B1+7)&(m-1))*2 + 1
		insert(setup, k)
	}
}

func bstBuild(kind simds.BSTKind, keepFences bool, lookupPct int, keyRange uint64) buildFunc {
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		b := simds.NewSimBST(setup, kind, keepFences, m.Config().Threads)
		prefillSet(setup, keyRange, b.Insert)
		return setOp(lookupPct, keyRange, b.Insert, b.Remove, b.Contains)
	}
}

func skipBuild(pto bool, lookupPct int, keyRange uint64) buildFunc {
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		s := simds.NewSimSkip(setup, pto, m.Config().Threads)
		prefillSet(setup, keyRange, s.Insert)
		return setOp(lookupPct, keyRange, s.Insert, s.Remove, s.Contains)
	}
}

// Fig3 reproduces Figure 3: the logarithmic search structure microbenchmark
// (setbench, range 512) at the given lookup percentage (0, 34, or 100),
// comparing the Ellen et al. tree and the skiplist, baseline vs. PTO (the
// tree's PTO is the composed PTO1+PTO2 of §4.4).
func Fig3(lookupPct int, scale float64) Figure {
	w := scaled(windowSet, scale)
	const keyRange = 512
	sub := map[int]string{0: "(a)", 34: "(b)", 100: "(c)"}[lookupPct]
	return Figure{
		ID:     "Figure 3" + sub,
		Title:  sprintfTitle("Search structures, lookup=%d%% range=%d", lookupPct, keyRange),
		YLabel: "ops/ms",
		Series: []Series{
			sweep("Tree (Lockfree)", w, bstBuild(simds.BSTLockfree, false, lookupPct, keyRange)),
			sweep("Tree (PTO)", w, bstBuild(simds.BSTPTO12, false, lookupPct, keyRange)),
			sweep("Skip (Lockfree)", w, skipBuild(false, lookupPct, keyRange)),
			sweep("Skip (PTO)", w, skipBuild(true, lookupPct, keyRange)),
		},
	}
}

// hashBuild fills one table of the kind for a whole sweep: its image is the
// same at every thread count (simds' hashSlotLines), so each point runs a
// clone of it.
func hashBuild(kind simds.HashKind, lookupPct int, keyRange uint64) imageFunc {
	return func(setup *sim.Thread) func(threads int) func(t *sim.Thread) {
		h := simds.NewSimHash(setup, kind, 64, 1)
		prefillSet(setup, keyRange, h.Insert)
		h.Stabilize(setup)
		return func(threads int) func(t *sim.Thread) {
			c := h.Clone(threads)
			return setOp(lookupPct, keyRange, c.Insert, c.Remove, c.Contains)
		}
	}
}

// Fig4 reproduces Figure 4: the hash table microbenchmark (setbench, range
// 64K) at the given lookup percentage (0, 80, or 100), comparing the
// lock-free baseline, plain PTO, and PTO with speculative in-place updates.
func Fig4(lookupPct int, scale float64) Figure {
	w := scaled(windowHash, scale)
	const keyRange = 64 * 1024
	sub := map[int]string{0: "(a)", 80: "(b)", 100: "(c)"}[lookupPct]
	return Figure{
		ID:     "Figure 4" + sub,
		Title:  sprintfTitle("Hash table, lookup=%d%% range=64K", lookupPct),
		YLabel: "ops/ms",
		Series: []Series{
			sweepImage("Hash (Lockfree)", w, hashBuild(simds.HashLF, lookupPct, keyRange)),
			sweepImage("Hash (PTO)", w, hashBuild(simds.HashPTO, lookupPct, keyRange)),
			sweepImage("Hash (PTO+Inplace)", w, hashBuild(simds.HashInplace, lookupPct, keyRange)),
		},
	}
}

// Fig5a reproduces Figure 5(a): percent improvement over the lock-free BST
// for PTO1, PTO2, and their composition, on the write-only setbench.
func Fig5a(scale float64) Figure {
	w := scaled(windowSet, scale)
	const keyRange = 512
	base := sweep("Lockfree", w, bstBuild(simds.BSTLockfree, false, 0, keyRange))
	pto1 := sweep("PTO1", w, bstBuild(simds.BSTPTO1, false, 0, keyRange))
	pto2 := sweep("PTO2", w, bstBuild(simds.BSTPTO2, false, 0, keyRange))
	both := sweep("PTO1+PTO2", w, bstBuild(simds.BSTPTO12, false, 0, keyRange))
	return Figure{
		ID:     "Figure 5(a)",
		Title:  "Composition of PTO on the BST (improvement over lock-free)",
		YLabel: "% improvement",
		Series: []Series{
			Improvement(pto1, base),
			Improvement(pto2, base),
			Improvement(both, base),
		},
	}
}

// Fig5b reproduces Figure 5(b): fence elimination on the Mound — percent
// improvement over lock-free for PTO with and without fences inside the
// transaction.
func Fig5b(scale float64) Figure {
	w := scaled(windowPQ, scale)
	base := sweep("Lockfree", w, moundBuild(false, false))
	withF := sweep("PTO(Fence)", w, moundBuild(true, true))
	noF := sweep("PTO(NoFence)", w, moundBuild(true, false))
	return Figure{
		ID:     "Figure 5(b)",
		Title:  "Fence elimination on the Mound (improvement over lock-free)",
		YLabel: "% improvement",
		Series: []Series{Improvement(withF, base), Improvement(noF, base)},
	}
}

// Fig5c reproduces Figure 5(c): fence elimination on the BST — percent
// improvement over lock-free for the composed PTO with and without fences
// inside the transactions, write-only setbench.
func Fig5c(scale float64) Figure {
	w := scaled(windowSet, scale)
	const keyRange = 512
	base := sweep("Lockfree", w, bstBuild(simds.BSTLockfree, false, 0, keyRange))
	withF := sweep("PTO(Fence)", w, bstBuild(simds.BSTPTO12, true, 0, keyRange))
	noF := sweep("PTO(NoFence)", w, bstBuild(simds.BSTPTO12, false, 0, keyRange))
	return Figure{
		ID:     "Figure 5(c)",
		Title:  "Fence elimination on the BST (improvement over lock-free)",
		YLabel: "% improvement",
		Series: []Series{Improvement(withF, base), Improvement(noF, base)},
	}
}

func sprintfTitle(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// splitmixRand is a stateless mixer for prefill value streams.
func splitmixRand(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
