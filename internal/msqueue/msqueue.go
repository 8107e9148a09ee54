// Package msqueue implements the Michael–Scott nonblocking FIFO queue — the
// paper's §2.3 exemplar of double-checked reads [35] — and a PTO-accelerated
// variant, exercising §5's claim that the technique extends beyond the five
// evaluated structures.
//
// The baseline is the classic algorithm: enqueue links at the tail and then
// swings the tail pointer in a second CAS, with every operation
// double-checking that its snapshot of head/tail is still current and
// helping a lagging tail forward. The PTO enqueue performs the link and the
// tail swing as one prefix transaction — the lagging-tail intermediate
// state never becomes visible and the double-checks disappear — aborting
// explicitly (rather than helping) when it observes a tail left lagging by
// a concurrent fallback enqueue (§2.4). The PTO dequeue is a two-store
// transaction with the same discipline.
package msqueue

import (
	"sync/atomic"

	"repro/internal/htm"
	"repro/internal/speculate"
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

// Enqueue appends v.
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
	q.enqSite = p.Site("msqueue/enqueue", 1,
		speculate.Level{Name: "pto", Attempts: q.attempts})
	q.deqSite = p.Site("msqueue/dequeue", 1,
		speculate.Level{Name: "pto", Attempts: q.attempts})
	return q
}

// Domain exposes the transactional domain (for tests and diagnostics).
func (q *PTOQueue) Domain() *htm.Domain { return q.domain }

// Enqueue appends v. The prefix transaction links the node and swings the
// tail in one atomic step: no double-checks, no lagging-tail state.
func (q *PTOQueue) Enqueue(v int64) {
	n := &pnode{val: v}
	n.next.Init(q.domain, nil)
	r := q.enqSite.Begin(q.domain)
	for r.Next(0) {
		st := r.Try(func(tx *htm.Tx) {
			t := htm.Load(tx, &q.tail)
			if htm.Load(tx, &t.next) != nil {
				tx.Abort(1) // a fallback enqueue left the tail lagging
			}
			htm.Store(tx, &t.next, n)
			htm.Store(tx, &q.tail, n)
		})
		if st == htm.Committed {
			return
		}
	}
	r.Fallback()
	q.enqueueFallback(n)
}

// enqueueFallback is the original two-CAS protocol with helping.
func (q *PTOQueue) enqueueFallback(n *pnode) {
	for {
		t := htm.Load(nil, &q.tail)
		next := htm.Load(nil, &t.next)
		if t != htm.Load(nil, &q.tail) {
			continue
		}
		if next != nil {
			htm.CAS(nil, &q.tail, t, next)
			continue
		}
		if htm.CAS(nil, &t.next, nil, n) {
			htm.CAS(nil, &q.tail, t, n)
			return
		}
	}
}

// Dequeue removes and returns the oldest value, reporting false when empty.
func (q *PTOQueue) Dequeue() (int64, bool) {
	r := q.deqSite.Begin(q.domain)
	for r.Next(0) {
		var v int64
		var ok bool
		st := r.Try(func(tx *htm.Tx) {
			h := htm.Load(tx, &q.head)
			t := htm.Load(tx, &q.tail)
			next := htm.Load(tx, &h.next)
			if next == nil {
				ok = false
				return
			}
			if h == t {
				tx.Abort(1) // lagging tail: let the fallback help it
			}
			v, ok = next.val, true
			htm.Store(tx, &q.head, next)
		})
		if st == htm.Committed {
			return v, ok
		}
	}
	r.Fallback()
	return q.dequeueFallback()
}

// dequeueFallback is the original protocol with double-checks and helping.
func (q *PTOQueue) dequeueFallback() (int64, bool) {
	for {
		h := htm.Load(nil, &q.head)
		t := htm.Load(nil, &q.tail)
		next := htm.Load(nil, &h.next)
		if h != htm.Load(nil, &q.head) {
			continue
		}
		if h == t {
			if next == nil {
				return 0, false
			}
			htm.CAS(nil, &q.tail, t, next)
			continue
		}
		v := next.val
		if htm.CAS(nil, &q.head, h, next) {
			return v, true
		}
	}
}

// Len counts queued values (O(n); tests and examples).
func (q *PTOQueue) Len() int {
	n := 0
	for c := htm.Load(nil, &htm.Load(nil, &q.head).next); c != nil; c = htm.Load(nil, &c.next) {
		n++
	}
	return n
}
