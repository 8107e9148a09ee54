package simds

import (
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// This file hosts the Michael–Scott queue on the simulated machine, as an
// extension experiment (E2): the paper's §2.3 names the MS queue as the
// canonical double-checked design. The baseline is the classic algorithm —
// snapshot head/tail, double-check the snapshot, help a lagging tail, CAS —
// with nodes drawn from per-thread pools (the common practice for queues,
// so allocation is not the story here). The PTO enqueue links the node and
// swings the tail in one transaction (no lagging-tail state, no
// double-checks); the PTO dequeue is a two-load one-store transaction.
// Both abort explicitly when they observe a lagging tail left by a fallback
// operation (§2.4) and fall back to the original protocol.

// SimMSQueue is the simulated FIFO queue. Node layout: +0 val, +1 next.
type SimMSQueue struct {
	pto     bool
	head    sim.Addr // line holding the head pointer
	tail    sim.Addr // line holding the tail pointer
	enqSite *simspec.Site
	deqSite *simspec.Site
}

// NewSimMSQueue builds an empty queue using setup thread t.
func NewSimMSQueue(t *sim.Thread, pto bool) *SimMSQueue {
	q := &SimMSQueue{pto: pto}
	dummy := t.AllocLocal(2)
	q.head = t.Alloc(1)
	q.tail = t.Alloc(1)
	t.Store(q.head, uint64(dummy))
	t.Store(q.tail, uint64(dummy))
	return q.WithPolicy(simspec.DefaultPolicy())
}

// WithPolicy installs the speculation policy for both queue sites. The
// level budget of 3 attempts is the paper-era tuning; Policy.Attempts
// overrides it when positive. Set before use.
func (q *SimMSQueue) WithPolicy(p speculate.Policy) *SimMSQueue {
	q.enqSite = simspec.New("simmsq/enqueue", p,
		speculate.Level{Name: "pto", Attempts: 3}).
		WithBackoffUnit(simspec.ShortBackoffCycles)
	q.deqSite = simspec.New("simmsq/dequeue", p,
		speculate.Level{Name: "pto", Attempts: 3}).
		WithBackoffUnit(simspec.ShortBackoffCycles)
	return q
}

// Enqueue appends v.
func (q *SimMSQueue) Enqueue(t *sim.Thread, v uint64) {
	n := t.AllocLocal(2)
	t.Store(n, v)
	t.Store(n+1, 0)
	if q.pto {
		r := q.enqSite.Begin(t)
		for r.Next(0) {
			st := r.Try(func() {
				tail := sim.Addr(t.Load(q.tail))
				if t.Load(tail+1) != 0 {
					t.TxAbort(1) // lagging tail from a fallback enqueue
				}
				t.Store(tail+1, uint64(n))
				t.Store(q.tail, uint64(n))
			})
			if st == sim.OK {
				return
			}
		}
		r.Fallback()
	}
	for {
		tail := sim.Addr(t.Load(q.tail))
		next := t.Load(tail + 1)
		if uint64(tail) != t.Load(q.tail) { // double-check the snapshot
			continue
		}
		if next != 0 {
			t.CAS(q.tail, uint64(tail), next) // help the lagging tail
			continue
		}
		if t.CAS(tail+1, 0, uint64(n)) {
			t.CAS(q.tail, uint64(tail), uint64(n))
			return
		}
	}
}

// Dequeue removes and returns the oldest value, reporting false when empty.
func (q *SimMSQueue) Dequeue(t *sim.Thread) (uint64, bool) {
	if q.pto {
		r := q.deqSite.Begin(t)
		for r.Next(0) {
			var v uint64
			var ok bool
			st := r.Try(func() {
				head := sim.Addr(t.Load(q.head))
				tail := sim.Addr(t.Load(q.tail))
				next := t.Load(head + 1)
				if next == 0 {
					ok = false
					return
				}
				if head == tail {
					t.TxAbort(1) // lagging tail: let the fallback help
				}
				v = t.Load(sim.Addr(next))
				t.Store(q.head, next)
				ok = true
			})
			if st == sim.OK {
				return v, ok
			}
		}
		r.Fallback()
	}
	for {
		head := sim.Addr(t.Load(q.head))
		tail := sim.Addr(t.Load(q.tail))
		next := t.Load(head + 1)
		if uint64(head) != t.Load(q.head) { // double-check the snapshot
			continue
		}
		if head == tail {
			if next == 0 {
				return 0, false
			}
			t.CAS(q.tail, uint64(tail), next)
			continue
		}
		v := t.Load(sim.Addr(next))
		if t.CAS(q.head, uint64(head), next) {
			return v, true
		}
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
