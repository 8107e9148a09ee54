// Package msqueue implements the Michael–Scott nonblocking FIFO queue — the
// paper's §2.3 exemplar of double-checked reads [35] — and a PTO-accelerated
// variant, exercising §5's claim that the technique extends beyond the five
// evaluated structures.
//
// The baseline is the classic algorithm: enqueue links at the tail, then
// swings the tail in a second CAS; every operation double-checks its
// head/tail snapshot and helps a lagging tail forward. The PTO enqueue links
// and swings in one prefix transaction — no lagging-tail state, no
// double-checks — and aborts (rather than helps) on a tail left lagging by
// a fallback enqueue (§2.4). The PTO dequeue is a one-store transaction
// with the same discipline. Its bodies, fallback and composed adapters are
// algo.go's, which simds.SimMSQueue instantiates too.
package msqueue

import (
	"sync/atomic"

	"repro/internal/htm"
	"repro/internal/speculate"
	"repro/internal/txn"
)

// DefaultAttempts is the transaction retry budget for the PTO variant.
const DefaultAttempts = 3

type node struct {
	val  int64
	next atomic.Pointer[node]
}

// Queue is the lock-free baseline FIFO queue.
type Queue struct {
	head atomic.Pointer[node]
	tail atomic.Pointer[node]
}

// New returns an empty queue.
func New() *Queue {
	q := &Queue{}
	dummy := &node{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Enqueue appends v: algo.go's Enqueue, written on the atomics (see there).
func (q *Queue) Enqueue(v int64) {
	n := &node{val: v}
	for {
		t := q.tail.Load()
		next := t.next.Load()
		if t != q.tail.Load() { // double-check the snapshot
			continue
		}
		if next != nil {
			q.tail.CompareAndSwap(t, next) // help the lagging tail
			continue
		}
		if t.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(t, n)
			return
		}
	}
}

// Dequeue removes and returns the oldest value, reporting false when empty.
func (q *Queue) Dequeue() (int64, bool) {
	for {
		h := q.head.Load()
		t := q.tail.Load()
		next := h.next.Load()
		if h != q.head.Load() { // double-check the snapshot
			continue
		}
		if h == t {
			if next == nil {
				return 0, false
			}
			q.tail.CompareAndSwap(t, next)
			continue
		}
		v := next.val
		if q.head.CompareAndSwap(h, next) {
			return v, true
		}
	}
}

// Len counts queued values (O(n); tests and examples).
func (q *Queue) Len() int {
	n := 0
	for c := q.head.Load().next.Load(); c != nil; c = c.next.Load() {
		n++
	}
	return n
}

// PTOQueue is the PTO-accelerated FIFO queue.
type PTOQueue struct {
	domain   *htm.Domain
	head     htm.Var[*pnode]
	tail     htm.Var[*pnode]
	attempts int

	enqSite *speculate.Site
	deqSite *speculate.Site
}

type pnode struct {
	val  int64
	next htm.Var[*pnode]
}

// pmem is PTOQueue's memory for the generic algorithm: loads, stores and
// CASes run in tx (direct when tx is nil), Read and Write through c.
type pmem struct {
	q  *PTOQueue
	tx *htm.Tx
	c  *txn.Ctx
}

type pword = *htm.Var[*pnode]

func (m pmem) Head() pword                       { return &m.q.head }
func (m pmem) Tail() pword                       { return &m.q.tail }
func (pmem) Next(n *pnode) pword                 { return &n.next }
func (pmem) Val(n *pnode) int64                  { return n.val }
func (m pmem) Load(w pword) *pnode               { return htm.Load(m.tx, w) }
func (m pmem) Store(w pword, x *pnode)           { htm.Store(m.tx, w, x) }
func (m pmem) CAS(w pword, old, new *pnode) bool { return htm.CAS(m.tx, w, old, new) }
func (m pmem) Abort()                            { m.tx.Abort(1) }
func (m pmem) Read(w pword) *pnode               { return txn.Read(m.c, w) }
func (m pmem) Write(w pword, x *pnode)           { txn.Write(m.c, w, x) }
func (m pmem) Retry()                            { m.c.Retry() }
func (m pmem) Speculative() bool                 { return m.c.Speculative() }

// NewPTO returns an empty PTO-accelerated queue (attempts ≤ 0 selects
// DefaultAttempts).
func NewPTO(attempts int) *PTOQueue {
	return NewPTOIn(htm.NewDomain(0, 0), attempts)
}

// WithPolicy replaces the speculation policy governing the retry loops. The
// default, speculate.Fixed(0), reproduces the historical behavior: up to
// `attempts` tries, stopping early on an explicit (lagging-tail) abort, then
// the original two-CAS protocol. Returns q for chaining.
func (q *PTOQueue) WithPolicy(p speculate.Policy) *PTOQueue {
	lv := speculate.Level{Name: "pto", Attempts: q.attempts}
	q.enqSite = p.Site("msqueue/enqueue", 1, lv)
	q.deqSite = p.Site("msqueue/dequeue", 1, lv)
	return q
}

// Domain exposes the transactional domain (for tests and diagnostics).
func (q *PTOQueue) Domain() *htm.Domain { return q.domain }

func (q *PTOQueue) newNode(v int64) *pnode {
	n := &pnode{val: v}
	n.next.Init(q.domain, nil)
	return n
}

// Enqueue appends v: the prefix transaction, then the original protocol.
func (q *PTOQueue) Enqueue(v int64) {
	n := q.newNode(v)
	r := q.enqSite.Begin(q.domain)
	for r.Next(0) {
		if r.Try(func(tx *htm.Tx) { PrefixEnqueue(pmem{q: q, tx: tx}, n) }) == htm.Committed {
			return
		}
	}
	r.Fallback()
	Enqueue(pmem{q: q}, n)
}

// Dequeue removes and returns the oldest value, reporting false when empty.
func (q *PTOQueue) Dequeue() (v int64, ok bool) {
	r := q.deqSite.Begin(q.domain)
	for r.Next(0) {
		if r.Try(func(tx *htm.Tx) { v, ok = PrefixDequeue(pmem{q: q, tx: tx}) }) == htm.Committed {
			return v, ok
		}
	}
	r.Fallback()
	return Dequeue(pmem{q: q})
}

// Len counts queued values (O(n); tests and examples).
func (q *PTOQueue) Len() int {
	n := 0
	for c := htm.Load(nil, &htm.Load(nil, &q.head).next); c != nil; c = htm.Load(nil, &c.next) {
		n++
	}
	return n
}

// NewPTOIn returns an empty PTO-accelerated queue living in the shared
// domain d, so it can take part in composed transactions (internal/txn)
// with other structures in d. attempts follows NewPTO.
func NewPTOIn(d *htm.Domain, attempts int) *PTOQueue {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	q := &PTOQueue{domain: d, attempts: attempts}
	q.WithPolicy(speculate.Fixed(0))
	dummy := q.newNode(0)
	q.head.Init(d, dummy)
	q.tail.Init(d, dummy)
	return q
}

// TxEnqueue appends v as part of a composed transaction.
func (q *PTOQueue) TxEnqueue(c *txn.Ctx, v int64) { TxEnqueue(pmem{q: q, c: c}, q.newNode(v)) }

// TxFront reads the oldest value without removing it, reporting false when
// the queue is empty, as part of a composed transaction.
func (q *PTOQueue) TxFront(c *txn.Ctx) (int64, bool) { return TxFront(pmem{q: q, c: c}) }

// TxDequeue removes and returns the oldest value, reporting false when the
// queue is empty, as part of a composed transaction.
func (q *PTOQueue) TxDequeue(c *txn.Ctx) (int64, bool) { return TxDequeue(pmem{q: q, c: c}) }
