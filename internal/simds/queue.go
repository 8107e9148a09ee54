package simds

import (
	"repro/internal/msqueue"
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/simtxn"
	"repro/internal/speculate"
)

// This file hosts the Michael–Scott queue, §2.3's double-checked design, on
// the simulated machine (extension experiment E2). Its algorithm is
// internal/msqueue's, instantiated on simulated words; only the attempt
// loops are this file's. Nodes come from per-thread pools.

// SimMSQueue is the simulated FIFO queue. Node layout: +0 val, +1 next.
type SimMSQueue struct {
	pto     bool
	head    sim.Addr // line holding the head pointer
	tail    sim.Addr // line holding the tail pointer
	enqSite *simspec.Site
	deqSite *simspec.Site
}

// qmem is SimMSQueue's msqueue.Mem: thread t's loads, stores and CASes
// (transactional inside t.Atomic), Read and Write through c.
type qmem struct {
	q *SimMSQueue
	t *sim.Thread
	c *simtxn.Ctx
}

func (m qmem) Head() sim.Addr                { return m.q.head }
func (m qmem) Tail() sim.Addr                { return m.q.tail }
func (qmem) Next(n sim.Addr) sim.Addr        { return n + 1 }
func (m qmem) Val(n sim.Addr) uint64         { return m.t.Load(n) }
func (m qmem) Load(w sim.Addr) sim.Addr      { return sim.Addr(m.t.Load(w)) }
func (m qmem) Store(w, x sim.Addr)           { m.t.Store(w, uint64(x)) }
func (m qmem) CAS(w, old, new sim.Addr) bool { return m.t.CAS(w, uint64(old), uint64(new)) }
func (m qmem) Abort()                        { m.t.TxAbort(1) }
func (m qmem) Read(w sim.Addr) sim.Addr      { return sim.Addr(m.c.Read(w)) }
func (m qmem) Write(w, x sim.Addr)           { m.c.Write(w, uint64(x)) }
func (m qmem) Retry()                        { m.c.Retry() }
func (m qmem) Speculative() bool             { return m.c.Speculative() }

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
	lv := speculate.Level{Name: "pto", Attempts: 3}
	q.enqSite = simspec.New("simmsq/enqueue", p, lv).WithBackoffUnit(simspec.ShortBackoffCycles)
	q.deqSite = simspec.New("simmsq/dequeue", p, lv).WithBackoffUnit(simspec.ShortBackoffCycles)
	return q
}

// newNode allocates a node holding v from t's pool.
func newNode(t *sim.Thread, v uint64) sim.Addr {
	n := t.AllocLocal(2)
	t.Store(n, v)
	t.Store(n+1, 0)
	return n
}

// Enqueue appends v.
func (q *SimMSQueue) Enqueue(t *sim.Thread, v uint64) {
	m := qmem{q: q, t: t}
	n := newNode(t, v)
	if q.pto {
		r := q.enqSite.Begin(t)
		for r.Next(0) {
			if r.Try(func() { msqueue.PrefixEnqueue(m, n) }) == sim.OK {
				return
			}
		}
		r.Fallback()
	}
	msqueue.Enqueue(m, n)
}

// Dequeue removes and returns the oldest value, reporting false when empty.
func (q *SimMSQueue) Dequeue(t *sim.Thread) (v uint64, ok bool) {
	m := qmem{q: q, t: t}
	if q.pto {
		r := q.deqSite.Begin(t)
		for r.Next(0) {
			if r.Try(func() { v, ok = msqueue.PrefixDequeue(m) }) == sim.OK {
				return v, ok
			}
		}
		r.Fallback()
	}
	return msqueue.Dequeue(m)
}

// TxEnqueue appends v as part of a composed operation.
func (q *SimMSQueue) TxEnqueue(c *simtxn.Ctx, v uint64) {
	msqueue.TxEnqueue(qmem{q, c.Thread(), c}, newNode(c.Thread(), v))
}

// TxFront reads the oldest value without removing it as part of a composed
// operation, reporting false when empty.
func (q *SimMSQueue) TxFront(c *simtxn.Ctx) (uint64, bool) {
	return msqueue.TxFront(qmem{q, c.Thread(), c})
}

// TxDequeue removes and returns the oldest value as part of a composed
// operation, reporting false when empty.
func (q *SimMSQueue) TxDequeue(c *simtxn.Ctx) (uint64, bool) {
	return msqueue.TxDequeue(qmem{q, c.Thread(), c})
}
