package mound_test

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/list"
	"repro/internal/mound"
	"repro/internal/txn"
)

// The mound's composition adapter, on both commit paths: composed pushes and
// pops preserve heap order, and concurrent cross-structure moves against a
// list set — racing raw RemoveMin/Insert pairs, whose root CAS, moundify
// DCAS and insert DCSS meet the composed publications on the same words —
// conserve the pair's contents and leave the heap ordered.

func checkComposedPushPop(t *testing.T, fallback bool) {
	m := txn.New(0)
	if fallback {
		m.Domain().SetCapacity(-1, -1)
	}
	pq := mound.NewPTOIn(m.Domain(), 6, 0)
	vals := []int64{9, 3, 7, 1, 8, 2, 2, 5}
	for _, v := range vals {
		m.Atomic(func(c *txn.Ctx) { pq.TxPush(c, v) })
	}
	if pq.Len() != len(vals) {
		t.Fatalf("Len = %d after %d composed pushes", pq.Len(), len(vals))
	}
	want := append([]int64{}, vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		var v int64
		var ok bool
		m.Atomic(func(c *txn.Ctx) { v, ok = pq.TxPopMin(c) })
		if !ok || v != w {
			t.Fatalf("composed pop %d = %d,%v, want %d", i, v, ok, w)
		}
	}
	var ok bool
	m.Atomic(func(c *txn.Ctx) { _, ok = pq.TxPopMin(c) })
	if ok {
		t.Fatal("composed pop on an empty mound reported a value")
	}
}

func TestComposedPushPopFast(t *testing.T) { checkComposedPushPop(t, false) }

func TestComposedPushPopFallback(t *testing.T) { checkComposedPushPop(t, true) }

func checkMoundListConservation(t *testing.T, fallback bool) {
	const workers = 6
	const opsPer = 250
	const vals = 48
	m := txn.New(0)
	if fallback {
		m.Domain().SetCapacity(-1, -1)
	}
	pq := mound.NewPTOIn(m.Domain(), 8, 0)
	set := list.NewPTOIn(m.Domain(), 0)
	for v := int64(1); v <= vals; v++ {
		m.Atomic(func(c *txn.Ctx) { pq.TxPush(c, v) })
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9E3779B97F4A7C15 + 1
			for i := 0; i < opsPer; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				switch {
				case w >= workers-2:
					// Raw structure operations: the pop's moundify and the
					// re-insert run the mound's own CAS/DCAS/DCSS (prefix
					// transactions, or htm.MultiCAS in fallback mode)
					// against the composed moves. The value is in neither
					// structure only while this worker holds it.
					if v, ok := pq.RemoveMin(); ok {
						pq.Insert(v)
					}
				case rng>>62&1 == 0:
					txn.MoveMin(m, pq, set)
				default:
					txn.MoveToPQ(m, set, pq, int64(rng>>33%vals)+1)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every value lives in exactly one of the two structures, so the union
	// must be exactly 1..vals. (Values here are unique, so MoveMin's undo
	// push never fires; TestMoveMinUndo* covers that path.) The queue must
	// drain in order: every racing moundify restored the heap invariant.
	got := append([]int64{}, set.Keys()...)
	for last := int64(0); ; {
		v, ok := pq.RemoveMin()
		if !ok {
			break
		}
		if v < last {
			t.Fatalf("queue drained %d after %d: heap order broken", v, last)
		}
		last = v
		got = append(got, v)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != vals {
		t.Fatalf("value count drifted: got %d, want %d (%v)", len(got), vals, got)
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("union mismatch at %d: got %d want %d (duplicate or lost value)", i, v, i+1)
		}
	}
}

func TestComposedMoundListConservationFast(t *testing.T) { checkMoundListConservation(t, false) }

func TestComposedMoundListConservationFallback(t *testing.T) { checkMoundListConservation(t, true) }

// checkMoveMinUndo pins MoveMin's undo path: the queue holds a duplicate of
// a value the set already has, so the second MoveMin pops it, fails the
// insert, and must push it back — a TxPush onto the root this same
// transaction staged dirty. Rejecting dirty candidates there retries
// forever (helping cannot clear dirt that exists only in the transaction's
// view), which is why TxPush accepts dirty nodes; this test livelocks if
// that regresses.
func checkMoveMinUndo(t *testing.T, fallback bool) {
	m := txn.New(0)
	if fallback {
		m.Domain().SetCapacity(-1, -1)
	}
	pq := mound.NewPTOIn(m.Domain(), 6, 0)
	set := list.NewPTOIn(m.Domain(), 0)
	m.Atomic(func(c *txn.Ctx) {
		pq.TxPush(c, 5)
		pq.TxPush(c, 5)
		pq.TxPush(c, 9)
	})
	if v, moved := txn.MoveMin(m, pq, set); !moved || v != 5 {
		t.Fatalf("first MoveMin = %d,%v, want 5,true", v, moved)
	}
	if v, moved := txn.MoveMin(m, pq, set); moved || v != 5 {
		t.Fatalf("duplicate MoveMin = %d,%v, want 5,false (undo)", v, moved)
	}
	if n := pq.Len(); n != 2 {
		t.Fatalf("Len = %d after undo, want 2 (duplicate pushed back)", n)
	}
	for _, want := range []int64{5, 9} {
		if v, ok := pq.RemoveMin(); !ok || v != want {
			t.Fatalf("RemoveMin = %d,%v, want %d (heap order after undo)", v, ok, want)
		}
	}
	if !set.Contains(5) {
		t.Fatal("set lost its copy of the duplicate value")
	}
}

func TestMoveMinUndoFast(t *testing.T) { checkMoveMinUndo(t, false) }

func TestMoveMinUndoFallback(t *testing.T) { checkMoveMinUndo(t, true) }
