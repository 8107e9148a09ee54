package skiplist

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/txn"
)

// composedSet runs each operation as one composed transaction through the
// Tx adapters: Insert and Remove as txn.Atomic, Contains as txn.ReadOnly.
type composedSet struct {
	m *txn.Manager
	s *PTOSet
}

func newComposed() composedSet {
	m := txn.New(0)
	return composedSet{m, NewPTOSetIn(m.Domain(), 0)}
}

func (c composedSet) Insert(k int64) (ok bool) {
	c.m.Atomic(func(x *txn.Ctx) { ok = c.s.TxInsert(x, k) })
	return ok
}

func (c composedSet) Remove(k int64) (ok bool) {
	c.m.Atomic(func(x *txn.Ctx) { ok = c.s.TxRemove(x, k) })
	return ok
}

func (c composedSet) Contains(k int64) (ok bool) {
	c.m.ReadOnly(func(x *txn.Ctx) { ok = c.s.TxContains(x, k) })
	return ok
}

func (c composedSet) Len() int      { return c.s.Len() }
func (c composedSet) Keys() []int64 { return c.s.Keys() }

// BenchmarkSkiplist runs a third each of inserts, removes and lookups of
// keys of [0, 8192) on a set of 4 096 keys that 2^16 insert/remove pairs
// have churned first, so its towers are what a set of that size draws
// while every level up to the tallest draw of the pairs has been linked:
// the cost of one operation of the baseline, of the PTO set's common path,
// and of its composed adapters.
func BenchmarkSkiplist(b *testing.B) {
	for _, c := range []struct {
		name string
		s    setIface
	}{{"lockfree", NewSet()}, {"pto", NewPTOSet(0)}, {"composed", newComposed()}} {
		s := c.s
		var live []int64
		for k := int64(0); k < 8192; k += 2 {
			s.Insert(k)
			live = append(live, k)
		}
		churn(s, rand.New(rand.NewSource(1)), live, 0, 8192, 1<<16)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			runtime.GC() // start from this sub-benchmark's own heap
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i * 37 % 8192)
				switch i % 3 {
				case 0:
					s.Insert(k)
				case 1:
					s.Remove(k)
				default:
					s.Contains(k)
				}
			}
		})
	}
}
