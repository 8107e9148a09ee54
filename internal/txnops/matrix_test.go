// Package txnops_test closes the structure×substrate matrix from the
// outside: compile-time conformance of every adapter against the shared
// contract, conservation fuzz of the generic composed algorithms over random
// structure pairs on both substrates, and a decision-parity spot check that
// the one shared algorithm makes the same decisions on the real runtime and
// the modeled machine when driven single-threaded from the same state.
package txnops_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/bst"
	"repro/internal/hashtable"
	"repro/internal/list"
	"repro/internal/mound"
	"repro/internal/msqueue"
	"repro/internal/sim"
	"repro/internal/simds"
	"repro/internal/simtxn"
	"repro/internal/skiplist"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txn"
	"repro/internal/txnops"
)

// The matrix, checked at compile time: every adapter satisfies its
// substrate's capability alias of the shared txnops contract. A structure
// missing a method fails the build here, not in a driver at runtime.
var (
	_ txn.Set   = (*bst.PTOTree)(nil)
	_ txn.Set   = (*hashtable.PTOTable)(nil)
	_ txn.Set   = (*skiplist.PTOSet)(nil)
	_ txn.Set   = (*list.PTOSet)(nil)
	_ txn.Queue = (*msqueue.PTOQueue)(nil)
	_ txn.PQ    = (*mound.Mound)(nil)

	_ simtxn.Set   = (*simds.SimBST)(nil)
	_ simtxn.Set   = (*simds.SimHash)(nil)
	_ simtxn.Set   = (*simds.SimSkip)(nil)
	_ simtxn.Set   = (*simds.SimList)(nil)
	_ simtxn.Queue = (*simds.SimMSQueue)(nil)
	_ simtxn.PQ    = (*simds.SimSkipQ)(nil)

	// The optional read-only PQ extension, on both substrates.
	_ txnops.MinPQ[*txn.Ctx, int64]     = (*mound.Mound)(nil)
	_ txnops.MinPQ[*simtxn.Ctx, uint64] = (*simds.SimSkipQ)(nil)
)

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// TestConservationFuzzRuntime drives random Move/MoveAll/Transfer traffic
// over random pairs drawn from every runtime set adapter, all sharing one
// HTM domain. Composed read-only snapshots during the churn must find each
// sampled key in exactly one set, and at quiescence each key lives in
// exactly one set and each queue value in exactly one queue. The sets are
// enumerated through the manager's Registry — the fuzz has no per-structure
// code. It runs on the fast path and again with capacity forced to zero,
// where every composed operation must commit through the MultiCAS fallback.
func TestConservationFuzzRuntime(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		if cs := conservationFuzzRuntime(t, false); cs.FastCommits == 0 {
			t.Errorf("fast path recorded no fast commits: %+v", cs)
		}
	})
	t.Run("fallback", func(t *testing.T) {
		if cs := conservationFuzzRuntime(t, true); cs.FastCommits != 0 || cs.MCASAttempts == 0 {
			t.Errorf("zero capacity must commit via MultiCAS only: %+v", cs)
		}
	})
}

// conservationFuzzRuntime runs the fuzz and returns the manager's composed
// telemetry.
func conservationFuzzRuntime(t *testing.T, fallback bool) telemetry.ComposedSnapshot {
	const (
		keyRange = 48
		threads  = 6
		opsPer   = 300
	)
	metrics := telemetry.NewRegistry()
	m := txn.New(0).WithPolicy(speculate.Fixed(0).WithMetrics(metrics))
	if fallback {
		m.Domain().SetCapacity(-1, -1)
	}
	reg := m.Structures()
	reg.AddSet("bst", bst.NewPTOIn(m.Domain(), -1, -1))
	reg.AddSet("hashtable", hashtable.NewPTOTableIn(m.Domain(), 16, 0))
	reg.AddSet("list", list.NewPTOIn(m.Domain(), 0))
	reg.AddSet("skiplist", skiplist.NewPTOSetIn(m.Domain(), 0))
	names := reg.SetNames()
	sets := make([]txn.Set, len(names))
	for i, n := range names {
		sets[i] = reg.Set(n)
	}
	// Prefill round-robin: key k starts in set k mod len(sets).
	for k := int64(0); k < keyRange; k++ {
		s := sets[int(k)%len(sets)]
		m.Atomic(func(c *txn.Ctx) { s.TxInsert(c, k) })
	}
	q1, q2 := msqueue.NewPTOIn(m.Domain(), 0), msqueue.NewPTOIn(m.Domain(), 0)
	for v := int64(0); v < keyRange; v++ {
		m.Atomic(func(c *txn.Ctx) { q1.TxEnqueue(c, v) })
	}

	homes := func(k int64) (n int) {
		m.ReadOnly(func(c *txn.Ctx) {
			n = 0
			for _, s := range sets {
				if s.TxContains(c, k) {
					n++
				}
			}
		})
		return n
	}

	var split atomic.Int64 // snapshots that saw a key in zero or several sets
	done := make(chan struct{})
	for g := 0; g < threads; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			rnd := uint64(g)*0x9E3779B9 + 7
			for i := 0; i < opsPer; i++ {
				rnd = splitmix(rnd)
				x := rnd
				src := sets[x%uint64(len(sets))]
				dst := sets[(x>>8)%uint64(len(sets))]
				k := int64(x >> 16 % keyRange)
				switch x >> 32 % 5 {
				case 0, 1:
					txn.Move(m, src, dst, k)
				case 2:
					ks := []int64{k, (k + 7) % keyRange, (k + 29) % keyRange}
					txn.MoveAll(m, src, dst, ks...)
				case 3:
					if x>>40&1 == 0 {
						txn.Transfer(m, q1, q2, 1+int(x>>48%3))
					} else {
						txn.Transfer(m, q2, q1, 1+int(x>>48%3))
					}
				default:
					if homes(k) != 1 {
						split.Add(1)
					}
				}
			}
		}(g)
	}
	for g := 0; g < threads; g++ {
		<-done
	}

	if n := split.Load(); n != 0 {
		t.Errorf("%d snapshots during the churn saw a key in zero or several sets", n)
	}
	for k := int64(0); k < keyRange; k++ {
		if n := homes(k); n != 1 {
			t.Errorf("key %d lives in %d sets, want 1", k, n)
		}
	}
	seen := make([]int, keyRange)
	for _, q := range []*msqueue.PTOQueue{q1, q2} {
		for {
			var v int64
			var ok bool
			m.Atomic(func(c *txn.Ctx) { v, ok = q.TxDequeue(c) })
			if !ok {
				break
			}
			seen[v]++
		}
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("queue value %d seen %d times, want 1", v, n)
		}
	}
	return metrics.Snapshot().Composed[0]
}

// TestConservationFuzzSim is the same fuzz on the modeled substrate: random
// Move/MoveAll/Transfer over random pairs of every simulated set adapter,
// conservation verified from the structures' own key scans at quiescence.
// It runs once per hardware variant: the default RTM-like model, the
// BoundedSet model (whose tight exact-set budgets push far more traffic
// through the capacity-abort → fallback path), and BoundedSet with every
// publication forced through the NBTC commit-time batch — conservation
// must hold identically on all three.
func TestConservationFuzzSim(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		conservationFuzzSim(t, sim.DefaultConfig(6), simtxn.New(0))
	})
	t.Run("bounded", func(t *testing.T) {
		cfg := sim.DefaultConfig(6)
		cfg.Model = sim.ModelBoundedSet
		conservationFuzzSim(t, cfg, simtxn.New(0))
	})
	t.Run("bounded+nbtc", func(t *testing.T) {
		cfg := sim.DefaultConfig(6)
		cfg.Model = sim.ModelBoundedSet
		mgr := simtxn.New(0).ForceFallback(true).WithNBTC(true)
		conservationFuzzSim(t, cfg, mgr)
		if mgr.NBTC().Batches == 0 {
			t.Error("NBTC arm committed no publication batches")
		}
	})
}

func conservationFuzzSim(t *testing.T, cfg sim.Config, mgr *simtxn.Manager) {
	const (
		keyRange = 48
		opsPer   = 150
	)
	threads := cfg.Threads
	machine := sim.New(cfg)
	setup := machine.Thread(0)
	reg := mgr.Structures()
	b := simds.NewSimBST(setup, simds.BSTPTO12, false, threads)
	h := simds.NewSimHash(setup, simds.HashPTO, 16, threads)
	h.Stabilize(setup)
	s := simds.NewSimSkip(setup, false, threads)
	li := simds.NewSimList(setup, false, threads)
	reg.AddSet("bst", b)
	reg.AddSet("hashtable", h)
	reg.AddSet("skiplist", s)
	reg.AddSet("list", li)
	names := reg.SetNames()
	sets := make([]simtxn.Set, len(names))
	for i, n := range names {
		sets[i] = reg.Set(n)
	}
	ins := []func(*sim.Thread, uint64) bool{b.Insert, h.Insert, s.Insert, li.Insert}
	order := []int{0, 0, 0, 0}
	for i, n := range names {
		switch n {
		case "bst":
			order[i] = 0
		case "hashtable":
			order[i] = 1
		case "skiplist":
			order[i] = 2
		case "list":
			order[i] = 3
		}
	}
	for k := uint64(1); k <= keyRange; k++ {
		ins[order[int(k)%len(sets)]](setup, k)
	}
	q1 := simds.NewSimMSQueue(setup, true)
	q2 := simds.NewSimMSQueue(setup, true)
	for v := uint64(1); v <= keyRange; v++ {
		q1.Enqueue(setup, v)
	}

	machine.Run(func(th *sim.Thread) {
		for i := 0; i < opsPer; i++ {
			x := th.Rand()
			src := sets[x%uint64(len(sets))]
			dst := sets[(x>>8)%uint64(len(sets))]
			k := x>>16%keyRange + 1
			switch x >> 32 % 4 {
			case 0, 1:
				simtxn.Move(mgr, th, src, dst, k)
			case 2:
				ks := []uint64{k, (k+7)%keyRange + 1, (k+29)%keyRange + 1}
				simtxn.MoveAll(mgr, th, src, dst, ks...)
			default:
				if x>>40&1 == 0 {
					simtxn.Transfer(mgr, th, q1, q2, 1+int(x>>48%3))
				} else {
					simtxn.Transfer(mgr, th, q2, q1, 1+int(x>>48%3))
				}
			}
		}
	})

	homes := make([]int, keyRange+1)
	for _, keys := range [][]uint64{b.Keys(setup), h.Keys(setup), s.Keys(setup), li.Keys(setup)} {
		for _, k := range keys {
			if k < 1 || k > keyRange {
				t.Fatalf("out-of-range key %d surfaced", k)
			}
			homes[k]++
		}
	}
	for k := 1; k <= keyRange; k++ {
		if homes[k] != 1 {
			t.Errorf("key %d lives in %d sets, want 1", k, homes[k])
		}
	}
	seen := make([]int, keyRange+1)
	for _, q := range []*simds.SimMSQueue{q1, q2} {
		for {
			v, ok := q.Dequeue(setup)
			if !ok {
				break
			}
			if v < 1 || v > keyRange {
				t.Fatalf("out-of-range queue value %d", v)
			}
			seen[v]++
		}
	}
	for v := 1; v <= keyRange; v++ {
		if seen[v] != 1 {
			t.Errorf("queue value %d seen %d times, want 1", v, seen[v])
		}
	}
}

// TestConservationFuzzSimPQ closes the PQ corner of the modeled matrix:
// random MoveMin/MoveToPQ traffic between the simulated skip-based priority
// queue and a skiplist set, with multiset conservation verified at
// quiescence — every initial value lives in exactly one of the two
// structures. (The set-only fuzz above cannot host PQ traffic: MoveMin
// drains an a-priori-unknown value, which would break its per-key
// one-home bookkeeping.)
func TestConservationFuzzSimPQ(t *testing.T) {
	const (
		valRange = 48
		threads  = 4
		opsPer   = 150
	)
	machine := sim.New(sim.DefaultConfig(threads))
	setup := machine.Thread(0)
	mgr := simtxn.New(0)
	pq := simds.NewSimSkipQ(setup, false, threads)
	set := simds.NewSimSkip(setup, false, threads)
	for v := uint64(1); v <= valRange; v++ {
		if v%2 == 0 {
			pq.Push(setup, v)
		} else {
			set.Insert(setup, v)
		}
	}

	machine.Run(func(th *sim.Thread) {
		for i := 0; i < opsPer; i++ {
			x := th.Rand()
			if x&1 == 0 {
				simtxn.MoveMin(mgr, th, pq, set)
			} else {
				simtxn.MoveToPQ(mgr, th, set, pq, x>>8%valRange+1)
			}
		}
	})

	homes := make([]int, valRange+1)
	for _, v := range set.Keys(setup) {
		if v < 1 || v > valRange {
			t.Fatalf("out-of-range set value %d surfaced", v)
		}
		homes[v]++
	}
	// Drain the queue through its own composed pop — the structure's raw
	// Pop cannot traverse the corpses composed pops leave linked.
	machine.Run(func(th *sim.Thread) {
		if th.ID() != 0 {
			return
		}
		for {
			var v uint64
			var ok bool
			mgr.Atomic(th, func(c *simtxn.Ctx) { v, ok = pq.TxPopMin(c) })
			if !ok {
				return
			}
			if v < 1 || v > valRange {
				t.Errorf("out-of-range popped value %d", v)
				return
			}
			homes[v]++
		}
	})
	for v := 1; v <= valRange; v++ {
		if homes[v] != 1 {
			t.Errorf("value %d lives in %d homes, want 1", v, homes[v])
		}
	}
}

// TestDecisionParityAcrossSubstrates drives the identical single-threaded
// operation sequence — same seed, same keys, same prefill — through the one
// shared composed algorithm on both substrates and requires the decision
// streams (Move success bits, MoveAll moved counts) to match exactly. The
// adapters differ in every mechanical detail, so agreement here pins that
// both implement the same abstract set semantics under the contract. The
// modeled side runs once per hardware variant — default RTM-like model,
// BoundedSet, and BoundedSet publishing through the forced NBTC batch —
// because the hardware model may move operations between the fast path and
// the fallback but must never change what an operation decides.
func TestDecisionParityAcrossSubstrates(t *testing.T) {
	const (
		keyRange = 32
		ops      = 400
	)
	// Runtime: BST ↔ skiplist pair.
	rm := txn.New(0)
	ra := bst.NewPTOIn(rm.Domain(), -1, -1)
	rb := skiplist.NewPTOSetIn(rm.Domain(), 0)
	for k := int64(2); k <= keyRange; k += 2 {
		rm.Atomic(func(c *txn.Ctx) { ra.TxInsert(c, k) })
	}
	var rt []int
	for i := 0; i < ops; i++ {
		x := splitmix(uint64(i))
		k := int64(x>>8%keyRange) + 1
		switch x % 3 {
		case 0:
			if txn.Move(rm, ra, rb, k) {
				rt = append(rt, 1)
			} else {
				rt = append(rt, 0)
			}
		case 1:
			if txn.Move(rm, rb, ra, k) {
				rt = append(rt, 1)
			} else {
				rt = append(rt, 0)
			}
		default:
			ks := []int64{k, (k % keyRange) + 1, ((k + 12) % keyRange) + 1}
			rt = append(rt, txn.MoveAll(rm, ra, rb, ks...))
		}
	}

	// Modeled: SimBST ↔ SimSkip pair on a one-thread machine, replayed once
	// per hardware variant against the one runtime stream.
	bounded := sim.DefaultConfig(1)
	bounded.Model = sim.ModelBoundedSet
	variants := []struct {
		name string
		cfg  sim.Config
		mgr  *simtxn.Manager
	}{
		{"default", sim.DefaultConfig(1), simtxn.New(0)},
		{"bounded", bounded, simtxn.New(0)},
		{"bounded+nbtc", bounded, simtxn.New(0).ForceFallback(true).WithNBTC(true)},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			sm := modeledDecisions(v.cfg, v.mgr, keyRange, ops)
			if len(rt) != len(sm) {
				t.Fatalf("decision stream lengths differ: %d vs %d", len(rt), len(sm))
			}
			for i := range rt {
				if rt[i] != sm[i] {
					t.Fatalf("decision %d diverged: runtime %d, modeled %d", i, rt[i], sm[i])
				}
			}
		})
	}
}

// modeledDecisions replays the parity sequence on one modeled machine and
// returns its decision stream.
func modeledDecisions(cfg sim.Config, mgr *simtxn.Manager, keyRange, ops uint64) []int {
	machine := sim.New(cfg)
	setup := machine.Thread(0)
	sa := simds.NewSimBST(setup, simds.BSTPTO12, false, 1)
	sb := simds.NewSimSkip(setup, false, 1)
	for k := uint64(2); k <= keyRange; k += 2 {
		sa.Insert(setup, k)
	}
	var sm []int
	machine.Run(func(th *sim.Thread) {
		for i := uint64(0); i < ops; i++ {
			x := splitmix(i)
			k := x>>8%keyRange + 1
			switch x % 3 {
			case 0:
				if simtxn.Move(mgr, th, sa, sb, k) {
					sm = append(sm, 1)
				} else {
					sm = append(sm, 0)
				}
			case 1:
				if simtxn.Move(mgr, th, sb, sa, k) {
					sm = append(sm, 1)
				} else {
					sm = append(sm, 0)
				}
			default:
				ks := []uint64{k, (k % keyRange) + 1, ((k + 12) % keyRange) + 1}
				sm = append(sm, simtxn.MoveAll(mgr, th, sa, sb, ks...))
			}
		}
	})
	return sm
}
