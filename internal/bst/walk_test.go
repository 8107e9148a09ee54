package bst

import (
	"math/rand"
	"testing"

	"repro/internal/htm"
	"repro/internal/txn"
)

// readFootprint returns the number of reads one transaction of op logs: the
// smallest read capacity under which op runs without a capacity abort in d.
func readFootprint(t *testing.T, d *htm.Domain, op func()) int {
	t.Helper()
	defer d.SetCapacity(0, 0)
	for r := 1; r <= 256; r++ {
		d.SetCapacity(r, 0)
		before := d.Stats().Capacity
		op()
		if d.Stats().Capacity == before {
			return r
		}
	}
	t.Fatal("no read capacity up to 256 commits")
	return 0
}

// depth returns the number of child links from the root to key's leaf.
func (t *PTOTree) depth(key int64) int {
	d := 0
	for n := htm.Load(nil, &t.root.left); ; n = htm.Load(nil, childVar(n, key)) {
		d++
		if n.leaf {
			return d
		}
	}
}

// TestTransactionalSearchFootprint pins a transactional lookup's reads to
// the child links on the way down plus at most three more: inside one
// transaction the reads are one snapshot, so no node's update word is read
// beside its child. Reading both, as the original's search does, costs two
// reads per level.
func TestTransactionalSearchFootprint(t *testing.T) {
	m := txn.New(0)
	pto1 := NewPTOIn(m.Domain(), DefaultPTO1Attempts, 0)
	// Shuffled inserts: sorted ones would build a path as deep as the set.
	for _, k := range rand.New(rand.NewSource(33)).Perm(256) {
		pto1.Insert(int64(2 * k))
	}
	deepest := 0
	for key := int64(0); key < 512; key += 7 {
		d := pto1.depth(key)
		deepest = max(deepest, d)
		want := d + 3
		var found bool
		if got := readFootprint(t, m.Domain(), func() { found = pto1.Contains(key) }); got > want {
			t.Errorf("PTO1 Contains(%d) at depth %d: %d reads, want at most %d", key, d, got, want)
		}
		if found != (key%2 == 0) {
			t.Fatalf("Contains(%d) = %v", key, found)
		}
		if got := readFootprint(t, m.Domain(), func() {
			m.ReadOnly(func(c *txn.Ctx) { found = pto1.TxContains(c, key) })
		}); got > want {
			t.Errorf("composed TxContains(%d) at depth %d: %d reads, want at most %d", key, d, got, want)
		}
		if found != (key%2 == 0) {
			t.Fatalf("TxContains(%d) = %v", key, found)
		}
	}
	if deepest < 8 {
		t.Fatalf("deepest probed leaf at depth %d: too shallow for the pin to mean anything", deepest)
	}
}
