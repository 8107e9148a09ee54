package skiplist

import (
	"repro/internal/htm"
	"repro/internal/speculate"
	"repro/internal/txn"
)

// This file is the skiplist's adapter to the transactional composition
// layer (internal/txn).
//
// The traversal (ctxFind) is non-helping: marked nodes are skipped in place
// rather than physically unlinked, because a link, once marked, never
// changes again — marking happens at most once per level — so a chain of
// marked nodes between a validated predecessor and its successor is
// immutable. That makes the validation window exact and small: recording
// just the predecessor's link proves the whole gap unchanged (the link is
// compared by its (successor, mark) pair; pto.go says why that suffices),
// and an insert that swings the predecessor's link over the marked chain
// atomically unlinks it as a side effect. The search starts at
// max(s.height, top) for the top of the tower the caller links (Set.height
// says why that is enough), and above top it reads only the nodes it moves
// past: the link of the node a level stops at would only say whether that
// node is marked, and no caller uses a level above its top.

// NewPTOSetIn returns an empty PTO-accelerated set living in the shared
// domain d, so it can participate in composed transactions with other
// structures in d. attempts follows NewPTOSet.
func NewPTOSetIn(d *htm.Domain, attempts int) *PTOSet {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	s := &PTOSet{domain: d, attempts: attempts}
	s.WithPolicy(speculate.Fixed(0))
	s.tail = s.newPNode(tailKey, MaxLevel-1)
	s.head = s.newPNode(headKey, MaxLevel-1)
	for l := 0; l < MaxLevel; l++ {
		s.tail.next[l].Init(d, &pbox{})
		s.head.next[l].Init(d, &s.tail.in)
	}
	s.rstate.Store(0x9E3779B97F4A7C15)
	return s
}

// ctxFind is the non-helping search: per level from top down it yields
// the last unmarked node with key < key (preds), the first unmarked node
// with key ≥ key (succs), and the predecessor's box (pboxes) — which may
// point into an immutable chain of marked nodes ending at succs. Levels
// above top only lead the search down and fill nothing. Reads go through
// Peek; callers record exactly the boxes their result depends on.
func (s *PTOSet) ctxFind(c *txn.Ctx, key int64, top int, preds, succs []*pnode, pboxes []*pbox) bool {
	pred := s.head
	for level := max(int(s.height.Load()), top); level >= 0; level-- {
		pb := txn.Peek(c, &pred.next[level])
		if pb.marked {
			c.Retry() // pred was deleted under us; re-run the body
		}
		curr := pb.n
		if level > top {
			for curr.key < key {
				cb := txn.Peek(c, &curr.next[level])
				if !cb.marked {
					pred = curr
				}
				curr = cb.n
			}
			continue
		}
		for {
			cb := txn.Peek(c, &curr.next[level])
			for cb.marked {
				curr = cb.n
				cb = txn.Peek(c, &curr.next[level])
			}
			if curr.key < key {
				pred, pb, curr = curr, cb, cb.n
			} else {
				break
			}
		}
		preds[level] = pred
		succs[level] = curr
		pboxes[level] = pb
	}
	return succs[0].key == key
}

// TxContains reports whether key is present, as part of a composed
// transaction. Presence is witnessed by the key node's own unmarked level-0
// box; absence by the predecessor's level-0 box spanning the gap.
func (s *PTOSet) TxContains(c *txn.Ctx, key int64) bool {
	var preds, succs [MaxLevel]*pnode
	var pboxes [MaxLevel]*pbox
	if s.ctxFind(c, key, 0, preds[:], succs[:], pboxes[:]) {
		if txn.Read(c, &succs[0].next[0]).marked {
			c.Retry() // deleted between search and record; re-run
		}
		return true
	}
	if txn.Read(c, &preds[0].next[0]) != pboxes[0] {
		c.Retry()
	}
	return false
}

// TxInsert adds key, reporting false if present, as part of a composed
// transaction. All top+1 predecessor links swing to the new node in the one
// atomic step, exactly as in the structure's own prefix transaction.
func (s *PTOSet) TxInsert(c *txn.Ctx, key int64) bool {
	return s.txInsert(c, key, drawLevel(&s.rstate))
}

// txInsert is TxInsert with a tower of top+1 links.
func (s *PTOSet) txInsert(c *txn.Ctx, key int64, top int) bool {
	var preds, succs [MaxLevel]*pnode
	var pboxes [MaxLevel]*pbox
	if s.ctxFind(c, key, top, preds[:], succs[:], pboxes[:]) {
		if txn.Read(c, &succs[0].next[0]).marked {
			c.Retry()
		}
		return false
	}
	s.ctxLink(c, s.newPNode(key, top), &preds, &succs, &pboxes)
	return true
}

// ctxLink is TxInsert's step after the search: it raises s.height to n's
// top, records every predecessor link of the still-private node n as
// holding the box the search saw there and swings it to n.
func (s *PTOSet) ctxLink(c *txn.Ctx, n *pnode, preds, succs *[MaxLevel]*pnode, pboxes *[MaxLevel]*pbox) {
	raise(&s.height, n.top)
	for l := 0; l <= n.top; l++ {
		if txn.Read(c, &preds[l].next[l]) != pboxes[l] {
			c.Retry()
		}
		// n is private until the commit publishes preds[l].next[l], so its
		// own links can be set by re-Init without touching the domain clock.
		n.next[l].Init(s.domain, &succs[l].in)
		txn.Write(c, &preds[l].next[l], &n.in)
	}
}

// TxRemove deletes key, reporting false if absent, as part of a composed
// transaction: every level of the victim is marked in the one atomic step,
// then a post-commit search performs the physical unlink.
func (s *PTOSet) TxRemove(c *txn.Ctx, key int64) bool {
	var preds, succs [MaxLevel]*pnode
	var pboxes [MaxLevel]*pbox
	if !s.ctxFind(c, key, 0, preds[:], succs[:], pboxes[:]) {
		if txn.Read(c, &preds[0].next[0]) != pboxes[0] {
			c.Retry()
		}
		return false
	}
	victim := succs[0]
	b0 := txn.Read(c, &victim.next[0])
	if b0.marked {
		return false // lost the race: linearized as "absent"
	}
	for l := victim.top; l >= 1; l-- {
		b := txn.Read(c, &victim.next[l])
		if !b.marked {
			txn.Write(c, &victim.next[l], &b.n.inMarked)
		}
	}
	txn.Write(c, &victim.next[0], &b0.n.inMarked)
	c.OnCommit(func() { s.unlink(key, victim.top) })
	return true
}
