package msqueue

import (
	"repro/internal/htm"
	"repro/internal/speculate"
	"repro/internal/txn"
)

// This file is the queue's adapter to the transactional composition layer
// (internal/txn): the txn.Queue methods. Because Read returns the
// operation's own staged writes, several enqueues and dequeues compose on
// the same queue within one transaction — an enqueue that just advanced the
// staged tail is immediately visible to the next enqueue or dequeue of the
// same body, which is what makes Transfer all-or-nothing.

// NewPTOIn returns an empty PTO-accelerated queue living in the shared
// domain d, so it can participate in composed transactions with other
// structures in d. attempts follows NewPTO.
func NewPTOIn(d *htm.Domain, attempts int) *PTOQueue {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	q := &PTOQueue{domain: d, attempts: attempts}
	q.WithPolicy(speculate.Fixed(0))
	dummy := &pnode{}
	dummy.next.Init(d, nil)
	q.head.Init(d, dummy)
	q.tail.Init(d, dummy)
	return q
}

// TxEnqueue appends v as part of a composed transaction: the link and the
// tail swing are one atomic step, so the lagging-tail intermediate state of
// the fallback protocol never becomes visible.
func (q *PTOQueue) TxEnqueue(c *txn.Ctx, v int64) {
	n := &pnode{val: v}
	n.next.Init(q.domain, nil)
	t := txn.Read(c, &q.tail)
	if next := txn.Read(c, &t.next); next != nil {
		// A fallback enqueue left the tail lagging: abort on the fast path
		// (§2.4); in capture mode help it forward, then re-run.
		if !c.Speculative() {
			htm.CAS(nil, &q.tail, t, next)
		}
		c.Retry()
	}
	txn.Write(c, &t.next, n)
	txn.Write(c, &q.tail, n)
}

// TxFront reads the oldest value without removing it, reporting false when
// the queue is empty, as part of a composed transaction. Both the head and
// its next pointer join the validated footprint, so a committed answer
// proves what the front of the queue was at the linearization point — the
// semantic head item open transactions (internal/semtx) validate.
func (q *PTOQueue) TxFront(c *txn.Ctx) (int64, bool) {
	h := txn.Read(c, &q.head)
	next := txn.Read(c, &h.next)
	if next == nil {
		return 0, false
	}
	return next.val, true
}

// TxDequeue removes and returns the oldest value, reporting false when the
// queue is empty, as part of a composed transaction. The empty answer is
// validated: the head's nil next pointer joins the footprint, so the commit
// guarantees the queue really was empty at the linearization point.
func (q *PTOQueue) TxDequeue(c *txn.Ctx) (int64, bool) {
	h := txn.Read(c, &q.head)
	next := txn.Read(c, &h.next)
	if next == nil {
		return 0, false
	}
	if t := txn.Read(c, &q.tail); h == t {
		// Lagging tail: help on the capture path only, as above.
		if !c.Speculative() {
			htm.CAS(nil, &q.tail, t, next)
		}
		c.Retry()
	}
	txn.Write(c, &q.head, next)
	return next.val, true
}
