package list

import (
	"repro/internal/htm"
	"repro/internal/speculate"
	"repro/internal/txn"
)

// This file is the Harris list's adapter to the transactional composition
// layer (internal/txn), on the shared txnops Set contract.
//
// The traversal (ctxSearch) is non-helping: marked nodes are skipped in
// place rather than snipped, because a box, once marked, is never written
// again — marking is the only write to a node's own next pointer and it
// happens at most once — so a chain of marked nodes between a validated
// predecessor and its successor is immutable. Recording just the
// predecessor's box therefore proves the whole gap unchanged, the same
// PTO2-style window the skiplist adapter uses.

// NewPTOIn returns an empty PTO-accelerated set living in the shared domain
// d, so it can participate in composed transactions with other structures in
// d. attempts follows NewPTO.
func NewPTOIn(d *htm.Domain, attempts int) *PTOSet {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	s := &PTOSet{domain: d, attempts: attempts}
	s.WithPolicy(speculate.Fixed(0))
	tail := &pnode{key: tailKey}
	tail.next.Init(d, &pbox{})
	s.head = &pnode{key: headKey}
	s.head.next.Init(d, &pbox{n: tail})
	return s
}

// ctxSearch is the non-helping search: it yields the last unmarked node with
// key < key (pred), the first unmarked node with key ≥ key (curr), and the
// box observed in pred.next — which may point into an immutable chain of
// marked nodes ending at curr. Reads go through Peek; callers record exactly
// the box their result depends on.
func (s *PTOSet) ctxSearch(c *txn.Ctx, key int64) (pred, curr *pnode, pb *pbox) {
	pred = s.head
	pb = txn.Peek(c, &pred.next)
	if pb.marked {
		c.Retry() // pred was deleted under us; re-run the body
	}
	curr = pb.n
	for {
		cb := txn.Peek(c, &curr.next)
		for cb.marked {
			curr = cb.n
			cb = txn.Peek(c, &curr.next)
		}
		if curr.key < key {
			pred, pb, curr = curr, cb, cb.n
		} else {
			return
		}
	}
}

// TxContains reports whether key is present, as part of a composed
// transaction. Presence is witnessed by the key node's own unmarked box;
// absence by the predecessor's box spanning the gap.
func (s *PTOSet) TxContains(c *txn.Ctx, key int64) bool {
	pred, curr, pb := s.ctxSearch(c, key)
	if curr.key == key {
		if txn.Read(c, &curr.next).marked {
			c.Retry() // deleted between search and record; re-run
		}
		return true
	}
	if txn.Read(c, &pred.next) != pb {
		c.Retry()
	}
	return false
}

// TxInsert adds key, reporting false if present, as part of a composed
// transaction. The predecessor's validated box swings to the new node in the
// one atomic step, exactly as in the structure's own prefix transaction.
func (s *PTOSet) TxInsert(c *txn.Ctx, key int64) bool {
	if key == headKey || key == tailKey {
		panic("list: key out of range")
	}
	pred, curr, pb := s.ctxSearch(c, key)
	if curr.key == key {
		if txn.Read(c, &curr.next).marked {
			c.Retry()
		}
		return false
	}
	if txn.Read(c, &pred.next) != pb {
		c.Retry()
	}
	n := &pnode{key: key}
	// n is private until the commit publishes pred.next, so its own link can
	// be set by Init without touching the domain clock.
	n.next.Init(s.domain, &pbox{n: curr})
	txn.Write(c, &pred.next, &pbox{n: n})
	return true
}

// TxRemove deletes key, reporting false if absent, as part of a composed
// transaction: the victim is marked AND snipped in the one atomic step —
// like the structure's own prefix transaction, the marked-but-linked
// intermediate state of the two-phase protocol never becomes visible.
func (s *PTOSet) TxRemove(c *txn.Ctx, key int64) bool {
	pred, curr, pb := s.ctxSearch(c, key)
	if curr.key != key {
		if txn.Read(c, &pred.next) != pb {
			c.Retry()
		}
		return false
	}
	cb := txn.Read(c, &curr.next)
	if cb.marked {
		return false // lost the race: linearized as "absent"
	}
	if txn.Read(c, &pred.next) != pb {
		c.Retry()
	}
	txn.Write(c, &curr.next, &pbox{n: cb.n, marked: true})
	txn.Write(c, &pred.next, &pbox{n: cb.n})
	return true
}
