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

// resizing is a realSet whose table a goroutine grows and shrinks while
// each history runs, so that lookups read through the predecessor table and
// updates meet frozen buckets.
type resizing struct {
	realSet
	table interface {
		Grow()
		Shrink()
	}
}

func checkRealSet(t *testing.T, name string, mk func() realSet) {
	t.Helper()
	const goroutines, opsPer, rounds = 3, 10, 12
	for round := 0; round < rounds; round++ {
		s := mk()
		done := make(chan struct{})
		var resizer sync.WaitGroup
		if r, ok := s.(resizing); ok {
			resizer.Add(1)
			started := make(chan struct{})
			go func() {
				defer resizer.Done()
				r.table.Grow()
				close(started) // the history begins on a table mid-resize
				for {
					select {
					case <-done:
						return
					default:
						r.table.Grow()
						r.table.Shrink()
					}
				}
			}()
			<-started
		}
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
		close(done)
		resizer.Wait()
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
	checkRealSet(t, "hash-composed", func() realSet {
		m := txn.New(0)
		return txnSet{m, hashtable.NewPTOTableIn(m.Domain(), 2, 0)}
	})
	checkRealSet(t, "hash-lockfree-resizing", func() realSet {
		h := hashtable.NewTable(2)
		return resizing{h, h}
	})
	checkRealSet(t, "hash-pto-resizing", func() realSet {
		h := hashtable.NewPTOTable(2, 0)
		return resizing{h, h}
	})
	checkRealSet(t, "hash-composed-resizing", func() realSet {
		m := txn.New(0)
		h := hashtable.NewPTOTableIn(m.Domain(), 2, 0)
		return resizing{txnSet{m, h}, h}
	})
}

func TestLinearizableRealSkiplist(t *testing.T) {
	checkRealSet(t, "skip-lockfree", func() realSet { return skiplist.NewSet() })
	checkRealSet(t, "skip-pto", func() realSet { return skiplist.NewPTOSet(0) })
	checkRealSet(t, "skip-lockfree-churned", func() realSet { return churned(skiplist.NewSet()) })
	checkRealSet(t, "skip-pto-churned", func() realSet { return churned(skiplist.NewPTOSet(0)) })
	checkRealSet(t, "skip-txn-churned", func() realSet {
		m := txn.New(0)
		return churned(txnSet{m, skiplist.NewPTOSetIn(m.Domain(), 0)})
	})
}

// churned returns s holding 256 multiples of 4 around the checked keys 1..3,
// after 4 096 insert/remove pairs among them: towers have come and gone, so
// the skiplist's height has been raised and lowered, and a search for a
// checked key hops at the upper levels. The history leaves these keys alone.
func churned(s realSet) realSet {
	live := make([]int64, 0, 256)
	for j := int64(-128); j < 128; j++ {
		s.Insert(4 * j)
		live = append(live, 4*j)
	}
	rnd := uint64(1)
	for i := 0; i < 4096; {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		k := 4 * (int64(rnd%1024) - 512)
		if !s.Insert(k) {
			continue
		}
		j := rnd >> 10 % uint64(len(live))
		s.Remove(live[j])
		live[j] = k
		i++
	}
	return s
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
