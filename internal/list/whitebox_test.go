package list

import (
	"testing"

	"repro/internal/htm"
)

// White-box tests staging a marked-but-unlinked node (a remover that
// stalled between its mark and its snip) so traversals must perform the
// physical deletion themselves.

func TestSearchSnipsStalledMark(t *testing.T) {
	s := New()
	for _, k := range []int64{1, 2, 3} {
		s.Insert(k)
	}
	// Locate node 2 and mark it without snipping.
	n1 := s.head.next.Load().n
	n2 := n1.next.Load().n
	if n2.key != 2 {
		t.Fatalf("unexpected layout: second key %d", n2.key)
	}
	b := n2.next.Load()
	if !n2.next.CompareAndSwap(b, &box{n: b.n, marked: true}) {
		t.Fatal("staging mark failed")
	}
	// A search through the marked node must snip it.
	if s.Contains(2) {
		t.Fatal("marked node still reported present")
	}
	if !s.Insert(2) {
		t.Fatal("re-insert after stalled mark failed (snip missing)")
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 2 || keys[2] != 3 {
		t.Fatalf("keys = %v, want [1 2 3]", keys)
	}
}

func TestRemoveOfStalledMarkReturnsFalse(t *testing.T) {
	s := New()
	s.Insert(5)
	n := s.head.next.Load().n
	b := n.next.Load()
	n.next.CompareAndSwap(b, &box{n: b.n, marked: true})
	if s.Remove(5) {
		t.Fatal("remove of already-marked key succeeded")
	}
	if s.Len() != 0 {
		t.Fatal("marked node survived traversal")
	}
}

func TestPTOSearchSnipsStalledMark(t *testing.T) {
	s := NewPTO(0)
	for _, k := range []int64{1, 2, 3} {
		s.Insert(k)
	}
	n1 := htm.Load(nil, &s.head.next).n
	n2 := htm.Load(nil, &n1.next).n
	if n2.key != 2 {
		t.Fatalf("unexpected layout: second key %d", n2.key)
	}
	b := htm.Load(nil, &n2.next)
	if !htm.CAS(nil, &n2.next, b, &pbox{n: b.n, marked: true}) {
		t.Fatal("staging mark failed")
	}
	if s.Contains(2) {
		t.Fatal("marked node still reported present")
	}
	if s.Remove(2) {
		t.Fatal("remove of marked key succeeded")
	}
	if !s.Insert(2) {
		t.Fatal("re-insert after stalled mark failed")
	}
	keys := s.Keys()
	if len(keys) != 3 {
		t.Fatalf("keys = %v, want three", keys)
	}
}

func TestPTORemoveFallbackWindowShift(t *testing.T) {
	// Under crushed capacity every remove runs removeFallback: one
	// single-threaded remove marks and snips, and a second finds the key
	// gone. Nothing marks between its search and its mark CAS, so the
	// re-search after a failed mark is left to the concurrent tests, which
	// reach it only as the schedule falls (the schedule explorer of ROADMAP
	// item 3 should stage it).
	s := NewPTO(0)
	s.Domain().SetCapacity(1, 1)
	for _, k := range []int64{1, 2, 3, 4} {
		s.Insert(k)
	}
	if !s.Remove(3) || s.Remove(3) {
		t.Fatal("fallback remove semantics wrong")
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
}
