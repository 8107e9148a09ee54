package linearize

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bst"
	"repro/internal/hashtable"
	"repro/internal/list"
	"repro/internal/skiplist"
	"repro/internal/txn"
)

// These tests record small concurrent histories against the real-concurrency
// data structures, with operation windows taken from the monotonic clock
// (the window [before, after] always contains the linearization point), and
// check them with the Wing&Gong-style checker. Small op counts keep the
// exponential search tractable.

type realSet interface {
	Insert(k int64) bool
	Remove(k int64) bool
	Contains(k int64) bool
}

func checkRealSet(t *testing.T, name string, mk func() realSet) {
	t.Helper()
	const goroutines, opsPer, rounds = 3, 10, 12
	for round := 0; round < rounds; round++ {
		s := mk()
		base := time.Now()
		histories := make([][]Op, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rnd := uint64(g*977 + round*31 + 1)
				for i := 0; i < opsPer; i++ {
					rnd ^= rnd << 13
					rnd ^= rnd >> 7
					rnd ^= rnd << 17
					key := int64(rnd%3 + 1)
					start := uint64(time.Since(base))
					var op Op
					switch rnd >> 8 % 3 {
					case 0:
						op = Op{Kind: Insert, Key: key, Result: s.Insert(key)}
					case 1:
						op = Op{Kind: Remove, Key: key, Result: s.Remove(key)}
					default:
						op = Op{Kind: Contains, Key: key, Result: s.Contains(key)}
					}
					op.Start, op.End = start, uint64(time.Since(base))
					histories[g] = append(histories[g], op)
				}
			}(g)
		}
		wg.Wait()
		var all []Op
		for _, h := range histories {
			all = append(all, h...)
		}
		if !Check(all) {
			t.Fatalf("%s round %d: history not linearizable:\n%+v", name, round, all)
		}
	}
}

func TestLinearizableRealBST(t *testing.T) {
	checkRealSet(t, "bst-lockfree", func() realSet { return bst.New() })
	checkRealSet(t, "bst-pto1", func() realSet { return bst.NewPTO1() })
	checkRealSet(t, "bst-pto2", func() realSet { return bst.NewPTO2() })
	checkRealSet(t, "bst-pto12", func() realSet { return bst.NewPTO12() })
}

func TestLinearizableRealHash(t *testing.T) {
	checkRealSet(t, "hash-lockfree", func() realSet { return hashtable.NewTable(2) })
	checkRealSet(t, "hash-pto", func() realSet { return hashtable.NewPTOTable(2, 0) })
}

func TestLinearizableRealSkiplist(t *testing.T) {
	checkRealSet(t, "skip-lockfree", func() realSet { return skiplist.NewSet() })
	checkRealSet(t, "skip-pto", func() realSet { return skiplist.NewPTOSet(0) })
}

func TestLinearizableRealList(t *testing.T) {
	checkRealSet(t, "list-lockfree", func() realSet { return list.New() })
	checkRealSet(t, "list-pto", func() realSet { return list.NewPTO(0) })
}

// txnSet runs a composable set's operations through the composition layer:
// Insert and Remove as txn.Atomic, Contains as txn.ReadOnly.
type txnSet struct {
	m *txn.Manager
	s txn.Set
}

func (t txnSet) Insert(k int64) (ok bool) {
	t.m.Atomic(func(c *txn.Ctx) { ok = t.s.TxInsert(c, k) })
	return ok
}

func (t txnSet) Remove(k int64) (ok bool) {
	t.m.Atomic(func(c *txn.Ctx) { ok = t.s.TxRemove(c, k) })
	return ok
}

func (t txnSet) Contains(k int64) (ok bool) {
	t.m.ReadOnly(func(c *txn.Ctx) { ok = t.s.TxContains(c, k) })
	return ok
}

// TestLinearizableRealTxn checks a BST driven through txn, on the HTM fast
// path and with capacity forced to zero (every operation a MultiCAS
// publication or a MultiValidate snapshot).
func TestLinearizableRealTxn(t *testing.T) {
	mk := func(fallback bool) func() realSet {
		return func() realSet {
			m := txn.New(0)
			if fallback {
				m.Domain().SetCapacity(-1, -1)
			}
			return txnSet{m, bst.NewPTOIn(m.Domain(), -1, -1)}
		}
	}
	checkRealSet(t, "txn-bst-fast", mk(false))
	checkRealSet(t, "txn-bst-fallback", mk(true))
}
