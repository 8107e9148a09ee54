package skiplist

import (
	"sync/atomic"

	"repro/internal/htm"
)

// This file implements the skiplist priority queue ("SkipQ") of §4.3: a
// Lotan–Shavit priority queue over the lock-free skiplist, made linearizable
// by disallowing a pop from traversing through a marked node it could not
// claim — on encountering one it restarts from the head instead of skipping
// ahead, so the returned element is the minimum at its linearization point
// (the successful level-0 mark).
//
// Duplicate priorities are supported by composing the priority with a
// sequence number drawn from a shared counter: key = prio<<SeqBits | seq.

// SeqBits is the width of the duplicate-breaking sequence field; priorities
// must fit in 63-SeqBits bits.
const SeqBits = 20

const seqMask = 1<<SeqBits - 1

// MaxPriority is the largest priority a queue accepts.
const MaxPriority = 1<<(62-SeqBits) - 1

// Queue is the baseline lock-free skiplist priority queue.
type Queue struct {
	set *Set
	seq atomic.Uint64
}

// NewQueue returns an empty priority queue.
func NewQueue() *Queue { return &Queue{set: NewSet()} }

// Push inserts a value with the given priority; duplicates are allowed.
func (q *Queue) Push(prio int64) {
	if prio < 0 || prio > MaxPriority {
		panic("skiplist: priority out of range")
	}
	for {
		key := prio<<SeqBits | int64(q.seq.Add(1)&seqMask)
		if q.set.Insert(key) {
			return
		}
	}
}

// Pop removes and returns the minimum priority, reporting false when empty.
func (q *Queue) Pop() (int64, bool) {
	s := q.set
restart:
	for {
		curr := s.head.next[0].Load().n
		for curr != s.tail {
			b := curr.next[0].Load()
			if b.marked {
				// A concurrent pop claimed the minimum; restart rather than
				// traverse through it (linearizability fix, §4.3).
				continue restart
			}
			s.casOps.Add(1)
			if curr.next[0].CompareAndSwap(b, &b.n.inMarked) {
				// Claimed. Mark the remaining levels and physically unlink.
				for l := curr.top; l >= 1; l-- {
					hb := curr.next[l].Load()
					for !hb.marked {
						s.casOps.Add(1)
						curr.next[l].CompareAndSwap(hb, &hb.n.inMarked)
						hb = curr.next[l].Load()
					}
				}
				var preds, succs [MaxLevel]*node
				s.find(curr.key, preds[:], succs[:], nil)
				return curr.key >> SeqBits, true
			}
			continue restart
		}
		return 0, false
	}
}

// Len returns the number of queued elements. O(n); for tests.
func (q *Queue) Len() int { return q.set.Len() }

// PTOQueue is the PTO-accelerated skiplist priority queue: pop claims and
// fully unlinks the minimum node in a single prefix transaction (the minimum
// is first at every level it occupies, so all its predecessors are the head),
// and push reuses the PTO set's transactional multi-link insert.
type PTOQueue struct {
	set *PTOSet
	seq atomic.Uint64
}

// NewPTOQueue returns an empty PTO-accelerated priority queue. attempts ≤ 0
// selects DefaultAttempts.
func NewPTOQueue(attempts int) *PTOQueue {
	return &PTOQueue{set: NewPTOSet(attempts)}
}

// Set exposes the underlying PTO set (for its domain and policy in tests).
func (q *PTOQueue) Set() *PTOSet { return q.set }

// Push inserts a value with the given priority; duplicates are allowed.
func (q *PTOQueue) Push(prio int64) {
	if prio < 0 || prio > MaxPriority {
		panic("skiplist: priority out of range")
	}
	for {
		key := prio<<SeqBits | int64(q.seq.Add(1)&seqMask)
		if q.set.Insert(key) {
			return
		}
	}
}

// Pop removes and returns the minimum priority, reporting false when empty.
func (q *PTOQueue) Pop() (int64, bool) {
	s := q.set
	r := s.popSite.Begin(s.domain)
	for r.Next(0) {
		var key int64
		empty := false
		st := r.Try(func(tx *htm.Tx) {
			first := htm.Load(tx, &s.head.next[0])
			curr := first.n
			if curr == s.tail {
				empty = true
				return
			}
			b := htm.Load(tx, &curr.next[0])
			if b.marked {
				// A concurrent pop is mid-removal: abort rather than help
				// (§2.4); the fallback or a retry will see a clean head.
				tx.Abort(1)
			}
			// The minimum is first at every level it occupies: unlink it
			// from the head and mark all its levels in one atomic step.
			for l := curr.top; l >= 0; l-- {
				hb := htm.Load(tx, &s.head.next[l])
				if hb.n == curr {
					cb := htm.Load(tx, &curr.next[l])
					htm.Store(tx, &s.head.next[l], &cb.n.in)
				}
				cb := htm.Load(tx, &curr.next[l])
				htm.Store(tx, &curr.next[l], &cb.n.inMarked)
			}
			key = curr.key
		})
		if st == htm.Committed {
			if empty {
				return 0, false
			}
			return key >> SeqBits, true
		}
	}
	r.Fallback()
	return q.popFallback()
}

// popFallback is the original Lotan–Shavit pop over the transactional Vars.
func (q *PTOQueue) popFallback() (int64, bool) {
	s := q.set
restart:
	for {
		curr := htm.Load(nil, &s.head.next[0]).n
		for curr != s.tail {
			b := htm.Load(nil, &curr.next[0])
			if b.marked {
				continue restart
			}
			if htm.CAS(nil, &curr.next[0], b, &b.n.inMarked) {
				for l := curr.top; l >= 1; l-- {
					hb := htm.Load(nil, &curr.next[l])
					for !hb.marked {
						htm.CAS(nil, &curr.next[l], hb, &hb.n.inMarked)
						hb = htm.Load(nil, &curr.next[l])
					}
				}
				var preds, succs [MaxLevel]*pnode
				s.find(curr.key, preds[:], succs[:], nil)
				return curr.key >> SeqBits, true
			}
			continue restart
		}
		return 0, false
	}
}

// Len returns the number of queued elements. O(n); for tests.
func (q *PTOQueue) Len() int { return q.set.Len() }
