package msqueue

import (
	"runtime"
	"testing"

	"repro/internal/israce"
	"repro/internal/txn"
)

// TestAllocsQueue pins what an operation allocates: nothing beyond the node.
// Enqueue allocates its node and Dequeue nothing, on the baseline and on the
// PTO queue; a composed TxEnqueue and TxDequeue under txn.Atomic allocate
// what the hand-written adapters did.
func TestAllocsQueue(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	lf, pto := New(), NewPTO(0)
	m := txn.New(0)
	composed := NewPTOIn(m.Domain(), 0)
	for i := int64(0); i < 64; i++ {
		lf.Enqueue(i)
		pto.Enqueue(i)
		composed.Enqueue(i)
	}
	enq := func(c *txn.Ctx) { composed.TxEnqueue(c, 7) }
	deq := func(c *txn.Ctx) { composed.TxDequeue(c) }
	for _, c := range []struct {
		name string
		op   func()
		want float64
	}{
		{"lock-free Enqueue", func() { lf.Enqueue(7) }, 1},
		{"lock-free Dequeue", func() { lf.Dequeue() }, 0},
		{"PTO Enqueue", func() { pto.Enqueue(7) }, 1},
		{"PTO Dequeue", func() { pto.Dequeue() }, 0},
		{"composed TxEnqueue", func() { m.Atomic(enq) }, 1},
		{"composed TxDequeue", func() { m.Atomic(deq) }, 0},
	} {
		if got := testing.AllocsPerRun(200, c.op); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// composedQueue runs each operation as one composed txn.Atomic, through the
// Tx adapters.
type composedQueue struct {
	m *txn.Manager
	q *PTOQueue
}

func newComposed() composedQueue {
	m := txn.New(0)
	return composedQueue{m, NewPTOIn(m.Domain(), 0)}
}

func (c composedQueue) Enqueue(v int64) { c.m.Atomic(func(x *txn.Ctx) { c.q.TxEnqueue(x, v) }) }
func (c composedQueue) Dequeue() (v int64, ok bool) {
	c.m.Atomic(func(x *txn.Ctx) { v, ok = c.q.TxDequeue(x) })
	return v, ok
}
func (c composedQueue) Len() int { return c.q.Len() }

// BenchmarkQueue alternates an enqueue and a dequeue on a 64-deep queue:
// the cost of one operation of the baseline, of the PTO queue's common
// path, and of its composed adapters under txn.Atomic.
func BenchmarkQueue(b *testing.B) {
	for _, c := range []struct {
		name string
		q    queueIface
	}{{"lockfree", New()}, {"pto", NewPTO(0)}, {"composed", newComposed()}} {
		q := c.q
		b.Run(c.name, func(b *testing.B) {
			for i := int64(0); i < 64; i++ {
				q.Enqueue(i)
			}
			b.ReportAllocs()
			runtime.GC() // start from this sub-benchmark's own heap
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&1 == 0 {
					q.Enqueue(int64(i))
				} else {
					q.Dequeue()
				}
			}
		})
	}
}
