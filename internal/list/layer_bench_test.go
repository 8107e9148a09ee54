package list

import (
	"runtime"
	"testing"

	"repro/internal/israce"
	"repro/internal/txn"
)

// TestAllocsList pins what an operation allocates. An insert allocates its
// node and the boxes it links, a remove its mark and snip boxes, a lookup
// nothing; each pair inserts and removes one key, so every run does the
// same work.
func TestAllocsList(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	lf, pto, composed := New(), NewPTO(0), newComposed()
	for k := int64(2); k <= 128; k += 2 {
		lf.Insert(k)
		pto.Insert(k)
		composed.Insert(k)
	}
	for _, c := range []struct {
		name string
		op   func()
		want float64
	}{
		{"lock-free Insert+Remove", func() { lf.Insert(63); lf.Remove(63) }, 5},
		{"lock-free Contains", func() { lf.Contains(64) }, 0},
		{"PTO Insert+Remove", func() { pto.Insert(63); pto.Remove(63) }, 5},
		{"PTO Contains", func() { pto.Contains(64) }, 0},
		{"composed TxInsert+TxRemove", func() { composed.Insert(63); composed.Remove(63) }, 5},
		{"composed TxContains", func() { composed.Contains(64) }, 0},
	} {
		if got := testing.AllocsPerRun(200, c.op); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// composedSet runs each operation as one composed txn.Atomic, through the
// Tx adapters.
type composedSet struct {
	m *txn.Manager
	s *PTOSet
}

func newComposed() composedSet {
	m := txn.New(0)
	return composedSet{m, NewPTOIn(m.Domain(), 0)}
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
	c.m.Atomic(func(x *txn.Ctx) { ok = c.s.TxContains(x, k) })
	return ok
}

// BenchmarkList runs a third each of inserts, removes and lookups over 128
// keys on a list prefilled with the even ones: the cost of one operation of
// the baseline, of the PTO list's common path, and of its composed adapters
// under txn.Atomic.
func BenchmarkList(b *testing.B) {
	type set interface {
		Insert(int64) bool
		Remove(int64) bool
		Contains(int64) bool
	}
	for _, c := range []struct {
		name string
		s    set
	}{{"lockfree", New()}, {"pto", NewPTO(0)}, {"composed", newComposed()}} {
		s := c.s
		b.Run(c.name, func(b *testing.B) {
			for k := int64(2); k <= 128; k += 2 {
				s.Insert(k)
			}
			b.ReportAllocs()
			runtime.GC() // start from this sub-benchmark's own heap
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i*37%128 + 1)
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
