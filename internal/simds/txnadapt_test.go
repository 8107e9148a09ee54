package simds

import (
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtxn"
	"repro/internal/speculate"
)

// The composition invariants, checked on the modeled machine: a composed
// Move conserves the union of the two sets and never duplicates a key, a
// composed Transfer conserves the multiset across two queues, and a
// composed ReadOnly snapshot observes a moving key in exactly one set —
// on the fast path and with the fallback MultiCAS forced, each under both
// policies of forPolicies.

func checkMoveConservation(t *testing.T, force bool) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		const threads = 8
		const keyRange = 64
		const opsPer = 150

		m := sim.New(sim.DefaultConfig(threads))
		setup := m.Thread(0)
		mgr := simtxn.New(0).WithPolicy(pol).ForceFallback(force)
		b := NewSimBST(setup, BSTPTO12, false, threads).WithPolicy(pol)
		h := NewSimHash(setup, HashPTO, 16, threads).WithPolicy(pol)
		h.Stabilize(setup)
		want := make([]uint64, 0, keyRange)
		for k := uint64(1); k <= keyRange; k++ {
			b.Insert(setup, k)
			want = append(want, k)
		}
		m.Run(func(th *sim.Thread) {
			for i := 0; i < opsPer; i++ {
				x := th.Rand()
				k := x%keyRange + 1
				if x>>40&1 == 0 {
					simtxn.Move(mgr, th, b, h, k)
				} else {
					simtxn.Move(mgr, th, h, b, k)
				}
			}
		})
		inTree := b.Keys(setup)
		inHash := h.Keys(setup)
		got := append(append([]uint64{}, inTree...), inHash...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("key count drifted: %d in tree + %d in hash, want %d total",
				len(inTree), len(inHash), len(want))
		}
		for i, k := range want {
			if got[i] != k {
				t.Fatalf("union mismatch at %d: got %d want %d (duplicate or lost key)",
					i, got[i], k)
			}
		}
	})
}

func TestComposedMoveConservationFast(t *testing.T) { checkMoveConservation(t, false) }

func TestComposedMoveConservationFallback(t *testing.T) { checkMoveConservation(t, true) }

func checkTransferConservation(t *testing.T, force bool) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		const threads = 4
		const vals = 64
		const opsPer = 100

		m := sim.New(sim.DefaultConfig(threads))
		setup := m.Thread(0)
		mgr := simtxn.New(0).WithPolicy(pol).ForceFallback(force)
		src := NewSimMSQueue(setup, false)
		dst := NewSimMSQueue(setup, false)
		for v := uint64(1); v <= vals; v++ {
			src.Enqueue(setup, v)
		}
		m.Run(func(th *sim.Thread) {
			for i := 0; i < opsPer; i++ {
				x := th.Rand()
				n := int(x>>16%3) + 1
				if x&1 == 0 {
					simtxn.Transfer(mgr, th, src, dst, n)
				} else {
					simtxn.Transfer(mgr, th, dst, src, n)
				}
			}
		})
		got := append(src.Drain(setup), dst.Drain(setup)...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != vals {
			t.Fatalf("value count drifted: got %d, want %d", len(got), vals)
		}
		for i, v := range got {
			if v != uint64(i+1) {
				t.Fatalf("multiset mismatch at %d: got %d want %d", i, v, i+1)
			}
		}
	})
}

func checkSkipMoveConservation(t *testing.T, force bool) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		const threads = 8
		const keyRange = 64
		const opsPer = 120

		m := sim.New(sim.DefaultConfig(threads))
		setup := m.Thread(0)
		mgr := simtxn.New(0).WithPolicy(pol).ForceFallback(force)
		s := NewSimSkip(setup, false, threads)
		h := NewSimHash(setup, HashPTO, 16, threads).WithPolicy(pol)
		h.Stabilize(setup)
		want := make([]uint64, 0, keyRange)
		for k := uint64(1); k <= keyRange; k++ {
			s.Insert(setup, k)
			want = append(want, k)
		}
		m.Run(func(th *sim.Thread) {
			for i := 0; i < opsPer; i++ {
				x := th.Rand()
				k := x%keyRange + 1
				if x>>40&1 == 0 {
					simtxn.Move(mgr, th, s, h, k)
				} else {
					simtxn.Move(mgr, th, h, s, k)
				}
			}
		})
		inSkip := s.Keys(setup)
		inHash := h.Keys(setup)
		got := append(append([]uint64{}, inSkip...), inHash...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("key count drifted: %d in skiplist + %d in hash, want %d total",
				len(inSkip), len(inHash), len(want))
		}
		for i, k := range want {
			if got[i] != k {
				t.Fatalf("union mismatch at %d: got %d want %d (duplicate or lost key)",
					i, got[i], k)
			}
		}
	})
}

func TestComposedSkipMoveConservationFast(t *testing.T) { checkSkipMoveConservation(t, false) }

func TestComposedSkipMoveConservationFallback(t *testing.T) { checkSkipMoveConservation(t, true) }

func TestComposedTransferConservationFast(t *testing.T) { checkTransferConservation(t, false) }

func TestComposedTransferConservationFallback(t *testing.T) { checkTransferConservation(t, true) }

func checkReadOnlySnapshot(t *testing.T, force bool) {
	const threads = 6
	const opsPer = 120
	const key = uint64(7)

	m := sim.New(sim.DefaultConfig(threads))
	setup := m.Thread(0)
	mgr := simtxn.New(0).ForceFallback(force)
	b := NewSimBST(setup, BSTPTO12, false, threads)
	h := NewSimHash(setup, HashPTO, 16, threads)
	h.Stabilize(setup)
	b.Insert(setup, key)
	var violations [16]int
	var observedHash [16]bool
	m.Run(func(th *sim.Thread) {
		if th.ID() < 2 {
			// Movers bounce the key between the two structures.
			for i := 0; i < opsPer; i++ {
				if th.Rand()&1 == 0 {
					simtxn.Move(mgr, th, b, h, key)
				} else {
					simtxn.Move(mgr, th, h, b, key)
				}
			}
			return
		}
		for i := 0; i < opsPer; i++ {
			var inTree, inHash bool
			mgr.ReadOnly(th, func(c *simtxn.Ctx) {
				inTree = b.TxContains(c, key)
				inHash = h.TxContains(c, key)
			})
			if inTree == inHash {
				violations[th.ID()]++
			}
			if inHash {
				observedHash[th.ID()] = true
			}
		}
	})
	for id, v := range violations {
		if v != 0 {
			t.Errorf("thread %d saw %d torn snapshots (key in both or neither set)", id, v)
		}
	}
	anyHash := false
	for _, o := range observedHash {
		anyHash = anyHash || o
	}
	if !anyHash {
		t.Log("note: no snapshot observed the key in the hash table (movers may have been slow)")
	}
}

func TestComposedReadOnlySnapshotFast(t *testing.T) { checkReadOnlySnapshot(t, false) }

func TestComposedReadOnlySnapshotFallback(t *testing.T) { checkReadOnlySnapshot(t, true) }
