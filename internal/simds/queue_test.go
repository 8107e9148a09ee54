package simds

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simtxn"
)

// TestComposedQueueLaggingTail stages the state a fallback enqueue leaves
// between its two CASes — a node linked after the tail, the tail not yet
// swung — and runs one composed operation on it, on the fast path and in
// capture mode. A TxDequeue must not move the head past the tail, and a
// TxEnqueue must help the tail forward and complete. Each case runs under a
// deadline, because a capture-mode adapter that retries without helping
// re-runs its body forever.
func TestComposedQueueLaggingTail(t *testing.T) {
	for _, c := range []struct {
		name  string
		force bool
		op    func(q *SimMSQueue, c *simtxn.Ctx)
		want  []uint64
	}{
		{"TxDequeue/fast", false, func(q *SimMSQueue, c *simtxn.Ctx) { q.TxDequeue(c) }, nil},
		{"TxDequeue/capture", true, func(q *SimMSQueue, c *simtxn.Ctx) { q.TxDequeue(c) }, nil},
		{"TxEnqueue/fast", false, func(q *SimMSQueue, c *simtxn.Ctx) { q.TxEnqueue(c, 7) }, []uint64{42, 7}},
		{"TxEnqueue/capture", true, func(q *SimMSQueue, c *simtxn.Ctx) { q.TxEnqueue(c, 7) }, []uint64{42, 7}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := sim.New(sim.DefaultConfig(1))
			setup := m.Thread(0)
			q := NewSimMSQueue(setup, true)
			dummy := sim.Addr(setup.Load(q.tail))
			setup.Store(dummy+1, uint64(newNode(setup, 42))) // linked, tail not swung
			mgr := simtxn.New(0).ForceFallback(c.force)
			done := make(chan struct{})
			go func() {
				m.Run(func(th *sim.Thread) { mgr.Atomic(th, func(x *simtxn.Ctx) { c.op(q, x) }) })
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the composed operation did not complete on a lagging tail")
			}
			head, tail := setup.Load(q.head), setup.Load(q.tail)
			for n := head; n != tail; n = setup.Load(sim.Addr(n) + 1) {
				if n == 0 {
					t.Fatalf("head %#x is past tail %#x", head, tail)
				}
			}
			if got := q.Drain(setup); !slices.Equal(got, c.want) {
				t.Fatalf("queue holds %v, want %v", got, c.want)
			}
		})
	}
}

// Drain pops everything (verification helper).
func (q *SimMSQueue) Drain(t *sim.Thread) []uint64 {
	var out []uint64
	for {
		v, ok := q.Dequeue(t)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
