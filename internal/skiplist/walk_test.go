package skiplist

import (
	"sort"
	"testing"

	"repro/internal/htm"
	"repro/internal/israce"
	"repro/internal/txn"
)

// readFootprint returns the number of reads one transaction of op logs: the
// smallest read capacity under which op runs without a capacity abort in d.
func readFootprint(t *testing.T, d *htm.Domain, op func()) int {
	t.Helper()
	defer d.SetCapacity(0, 0)
	for r := 1; r <= 4*MaxLevel; r++ {
		d.SetCapacity(r, 0)
		before := d.Stats().Capacity
		op()
		if d.Stats().Capacity == before {
			return r
		}
	}
	t.Fatalf("no read capacity up to %d commits", 4*MaxLevel)
	return 0
}

// tallest returns the highest level of any node of s.
func (s *PTOSet) tallest() int {
	h := 0
	for curr := htm.Load(nil, &s.head.next[0]).n; curr != s.tail; curr = htm.Load(nil, &curr.next[0]).n {
		h = max(h, curr.top)
	}
	return h
}

// TestTxContainsFootprint pins a composed lookup's reads to the levels in
// use: below the smallest key the search makes no hop, so it reads two
// links per level from the tallest tower's top down, then records one
// level-0 link. A search from the fixed top level reads two per level of
// all MaxLevel.
func TestTxContainsFootprint(t *testing.T) {
	m := txn.New(0)
	s := NewPTOSetIn(m.Domain(), 0)
	for k := int64(1); k <= 512; k++ {
		s.Insert(2 * k)
	}
	h := s.tallest()
	if h >= MaxLevel-2 {
		t.Fatalf("tallest tower at level %d: too tall for the pin to mean anything", h)
	}
	for _, key := range []int64{1, 2} {
		var found bool
		got := readFootprint(t, m.Domain(), func() {
			m.ReadOnly(func(c *txn.Ctx) { found = s.TxContains(c, key) })
		})
		if found != (key == 2) {
			t.Fatalf("TxContains(%d) = %v", key, found)
		}
		if want := 2*(h+1) + 2; got > want {
			t.Errorf("TxContains(%d) with the tallest tower at level %d: %d reads, want at most %d", key, h, got, want)
		}
	}
}

// TestAllocsSkiplistInsertRemove pins what a link costs: nothing. An insert
// allocates its node and the node's slice of links; a remove nothing; a
// composed remove its post-commit unlink hook.
func TestAllocsSkiplistInsertRemove(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	lf := NewSet()
	pto := NewPTOSet(0)
	m := txn.New(0)
	composed := NewPTOSetIn(m.Domain(), 0)
	for k := int64(0); k < 256; k++ {
		lf.Insert(2 * k)
		pto.Insert(2 * k)
		composed.Insert(2 * k)
	}
	// Odd keys, absent from the prefill, so every pair inserts and removes.
	k := int64(-1)
	next := func() { k = (k + 2) % 512 }
	ins := func(c *txn.Ctx) { composed.TxInsert(c, k) }
	rm := func(c *txn.Ctx) { composed.TxRemove(c, k) }
	for _, c := range []struct {
		name string
		op   func()
		want float64
	}{
		{"lock-free Insert+Remove", func() { next(); lf.Insert(k); lf.Remove(k) }, 2},
		{"PTO Insert+Remove", func() { next(); pto.Insert(k); pto.Remove(k) }, 2},
		{"composed TxInsert+TxRemove", func() { next(); m.Atomic(ins); m.Atomic(rm) }, 3},
	} {
		if got := testing.AllocsPerRun(200, c.op); got > c.want {
			t.Errorf("%s: %v allocs, want at most %v", c.name, got, c.want)
		}
	}
	if lf.Len() != 256 || pto.Len() != 256 || composed.Len() != 256 {
		t.Errorf("Len = %d, %d, %d after balanced pairs, want 256", lf.Len(), pto.Len(), composed.Len())
	}
}

// checkSorted fails t unless keys is sorted and n long.
func checkSorted(t *testing.T, name string, keys []int64, n int) {
	t.Helper()
	if len(keys) != n || !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Errorf("%s: keys %v, want %d sorted keys", name, keys, n)
	}
}

// TestValueIdentityReusesBoxes stages the history box identity ruled out
// and value identity allows: a search records a predecessor's link, another
// operation inserts X right after the predecessor, then removes and snips
// it, and the link holds the identical box again. Every way of linking a
// node against the recorded box — the lock-free CAS, the PTO variant's
// direct CAS, its prefix transaction, and a composed TxInsert on the
// MultiCAS path — must commit on the first try.
func TestValueIdentityReusesBoxes(t *testing.T) {
	t.Run("lockfree", func(t *testing.T) {
		s := NewSet()
		s.Insert(10)
		s.Insert(100)
		var preds, succs [MaxLevel]*node
		var pboxes [MaxLevel]*box
		top := int(s.height.Load()) // the levels find fills
		s.find(50, preds[:], succs[:], pboxes[:])
		if !s.Insert(40) || !s.Remove(40) {
			t.Fatal("X was not inserted and removed")
		}
		for l := 0; l <= top; l++ {
			if got := preds[l].next[l].Load(); got != pboxes[l] {
				t.Fatalf("level %d: link holds %p after X came and went, recorded %p", l, got, pboxes[l])
			}
		}
		n := newNode(50, 0)
		n.next[0].Store(&succs[0].in)
		if !preds[0].next[0].CompareAndSwap(pboxes[0], &n.in) {
			t.Fatal("CAS against the recorded box failed")
		}
		checkSorted(t, "lockfree", s.Keys(), 3)
		if s.Len() != 3 || !s.Contains(50) {
			t.Errorf("Len = %d, Contains(50) = %v, want 3, true", s.Len(), s.Contains(50))
		}
	})

	t.Run("pto", func(t *testing.T) {
		m := txn.New(0).ForceFallback(true)
		s := NewPTOSetIn(m.Domain(), 0)
		s.Insert(10)
		s.Insert(100)
		// record searches for key, then lets X = key-5 come and go after
		// the recorded predecessor. It returns the top level it recorded.
		record := func(key int64, preds, succs *[MaxLevel]*pnode, pboxes *[MaxLevel]*pbox) int {
			top := int(s.height.Load())
			s.find(key, preds[:], succs[:], pboxes[:])
			if !s.Insert(key-5) || !s.Remove(key-5) {
				t.Fatalf("X = %d was not inserted and removed", key-5)
			}
			for l := 0; l <= top; l++ {
				if got := htm.Load(nil, &preds[l].next[l]); got != pboxes[l] {
					t.Fatalf("key %d, level %d: link holds %p after X came and went, recorded %p", key, l, got, pboxes[l])
				}
			}
			return top
		}
		var preds, succs [MaxLevel]*pnode
		var pboxes [MaxLevel]*pbox

		record(25, &preds, &succs, &pboxes)
		n := s.newPNode(25, 0)
		s.link(n, &succs)
		if !htm.CAS(nil, &preds[0].next[0], pboxes[0], &n.in) {
			t.Error("direct CAS against the recorded box failed")
		}

		n = s.newPNode(50, record(50, &preds, &succs, &pboxes))
		s.link(n, &succs)
		if st := s.domain.Atomically(func(tx *htm.Tx) { s.swing(tx, n, &preds, &pboxes) }); st != htm.Committed {
			t.Errorf("prefix transaction against the recorded boxes: %v", st)
		}

		runs := 0
		m.Atomic(func(c *txn.Ctx) {
			runs++
			var preds, succs [MaxLevel]*pnode
			var pboxes [MaxLevel]*pbox
			top := int(s.height.Load())
			s.ctxFind(c, 75, preds[:], succs[:], pboxes[:])
			if runs == 1 {
				if !s.Insert(70) || !s.Remove(70) {
					t.Fatal("X = 70 was not inserted and removed")
				}
			}
			s.ctxLink(c, s.newPNode(75, top), &preds, &succs, &pboxes)
		})
		if runs != 1 {
			t.Errorf("composed TxInsert against the recorded boxes ran %d times, want 1", runs)
		}

		checkSorted(t, "pto", s.Keys(), 5)
		for _, k := range []int64{10, 25, 50, 75, 100} {
			if !s.Contains(k) {
				t.Errorf("Contains(%d) = false", k)
			}
		}
		if s.Len() != 5 {
			t.Errorf("Len = %d, want 5", s.Len())
		}
	})
}
