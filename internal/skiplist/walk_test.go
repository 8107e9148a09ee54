package skiplist

import (
	"math/rand"
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

// tallest returns the highest level of any node of s.
func (s *Set) tallest() int {
	h := 0
	for curr := s.head.next[0].Load().n; curr != s.tail; curr = curr.next[0].Load().n {
		h = max(h, curr.top)
	}
	return h
}

// churn runs pairs insert/remove pairs on s, keeping its size: each inserts
// a key of [lo, hi) that s lacks and removes one of the keys it inserted or
// of live, the keys s held before. Towers come and go, so the tallest live
// one falls back to what the set's size draws while every level up to the
// tallest of all pairs' draws has been linked once.
func churn(s setIface, rnd *rand.Rand, live []int64, lo, hi int64, pairs int) {
	live = append([]int64(nil), live...)
	for i := 0; i < pairs; {
		k := lo + rnd.Int63n(hi-lo)
		if !s.Insert(k) {
			continue
		}
		j := rnd.Intn(len(live))
		s.Remove(live[j])
		live[j] = k
		i++
	}
}

// TestTxContainsFootprint pins a composed lookup's reads to the levels in
// use: below the smallest key the search makes no hop, so it reads one link
// per level from the tallest tower's top down to level 1, two at level 0,
// then records one level-0 link it has read already. A search from the fixed
// top level reads one per level of all MaxLevel, and one that reads the link
// of the node it stops at two per level. The churned row runs 2^16
// insert/remove pairs on the 512-key set first: a height that only grows
// would sit at the tallest tower any pair drew, not at the tallest live one.
func TestTxContainsFootprint(t *testing.T) {
	for _, churned := range []bool{false, true} {
		m := txn.New(0)
		s := NewPTOSetIn(m.Domain(), 0)
		lf := NewSet()
		var live []int64
		for k := int64(2); k <= 1024; k += 2 {
			s.Insert(k)
			lf.Insert(k)
			live = append(live, k)
		}
		if churned {
			// Key 2 stays the smallest, and 1 stays absent below it.
			churn(s, rand.New(rand.NewSource(1)), live[1:], 3, 2048, 1<<16)
			churn(lf, rand.New(rand.NewSource(1)), live[1:], 3, 2048, 1<<16)
			if got, want := int(s.height.Load()), s.tallest(); got != want {
				t.Errorf("PTO set, churned: height %d, tallest live tower at level %d", got, want)
			}
			if got, want := int(lf.height.Load()), lf.tallest(); got != want {
				t.Errorf("lock-free set, churned: height %d, tallest live tower at level %d", got, want)
			}
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
				t.Fatalf("churned %v: TxContains(%d) = %v", churned, key, found)
			}
			if want := (h + 1) + 2; got > want {
				t.Errorf("churned %v: TxContains(%d) with the tallest tower at level %d: %d reads, want at most %d", churned, key, h, got, want)
			}
		}
	}
}

// TestAllocsSkiplistInsertRemove pins what a node and a link cost: an insert
// allocates its node, whose tower lives in the node's own allocation unless
// it is taller than four links (one node in sixteen, which the average
// truncates away); a link nothing; a remove nothing; a composed remove its
// post-commit unlink hook. An insert of a present key allocates nothing on
// either set: the node comes after the search that finds the key absent.
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
		{"lock-free Insert+Remove", func() { next(); lf.Insert(k); lf.Remove(k) }, 1},
		{"PTO Insert+Remove", func() { next(); pto.Insert(k); pto.Remove(k) }, 1},
		{"composed TxInsert+TxRemove", func() { next(); m.Atomic(ins); m.Atomic(rm) }, 2},
		{"lock-free Insert of a present key", func() { lf.Insert(8) }, 0},
		{"PTO Insert of a present key", func() { pto.Insert(8) }, 0},
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
		s.find(50, 0, preds[:], succs[:], pboxes[:])
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
			s.find(key, 0, preds[:], succs[:], pboxes[:])
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
			s.ctxFind(c, 75, top, preds[:], succs[:], pboxes[:])
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
