package mound

import (
	"runtime"
	"testing"

	"repro/internal/israce"
	"repro/internal/txn"
)

// TestAllocsMound pins what an Insert+RemoveMin pair allocates on a mound
// holding 64 values. List nodes live in the pool and a software DCAS reuses
// its descriptor slot, so the baseline allocates nothing; the PTO mound's
// words are htm Vars, whose every write boxes its value (three per pair
// here), and a composed TxPush and TxPopMin, each under its own txn.Atomic,
// allocate four.
func TestAllocsMound(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	lf, pto, composed := New(12), NewPTO(12, 0), newComposed()
	for i := int64(0); i < 64; i++ {
		lf.Insert(i)
		pto.Insert(i)
		composed.Insert(i)
	}
	for _, c := range []struct {
		name string
		op   func()
		want float64
	}{
		{"lock-free Insert+RemoveMin", func() { lf.Insert(7); lf.RemoveMin() }, 0},
		{"PTO Insert+RemoveMin", func() { pto.Insert(7); pto.RemoveMin() }, 3},
		{"composed TxPush+TxPopMin", func() { composed.Insert(7); composed.RemoveMin() }, 4},
	} {
		if got := testing.AllocsPerRun(200, c.op); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// composedMound runs each operation as one composed txn.Atomic, through the
// Tx adapters.
type composedMound struct {
	m *txn.Manager
	q *Mound
}

func newComposed() composedMound {
	m := txn.New(0)
	return composedMound{m, NewPTOIn(m.Domain(), 12, 0)}
}

func (c composedMound) Insert(v int64) { c.m.Atomic(func(x *txn.Ctx) { c.q.TxPush(x, v) }) }
func (c composedMound) RemoveMin() (v int64, ok bool) {
	c.m.Atomic(func(x *txn.Ctx) { v, ok = c.q.TxPopMin(x) })
	return v, ok
}

// BenchmarkMound alternates an insert and a removeMin on a mound of 64
// values at maxDepth 12: the cost of one operation of the baseline, of the
// PTO mound's common path, and of its composed adapters under txn.Atomic.
func BenchmarkMound(b *testing.B) {
	type pq interface {
		Insert(int64)
		RemoveMin() (int64, bool)
	}
	for _, c := range []struct {
		name string
		q    pq
	}{{"lockfree", New(12)}, {"pto", NewPTO(12, 0)}, {"composed", newComposed()}} {
		q := c.q
		b.Run(c.name, func(b *testing.B) {
			for i := int64(0); i < 64; i++ {
				q.Insert(i)
			}
			b.ReportAllocs()
			runtime.GC() // start from this sub-benchmark's own heap
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&1 == 0 {
					q.Insert(int64(i) & 1023)
				} else {
					q.RemoveMin()
				}
			}
		})
	}
}
