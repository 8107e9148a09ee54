package bst

import (
	"repro/internal/htm"
	"repro/internal/speculate"
	"repro/internal/txn"
)

// This file is the BST's adapter to the transactional composition layer
// (internal/txn): the txn.Set methods, written once against the Ctx
// accessors so the same body serves the composed HTM fast path and the
// capture/MultiCAS fallback.
//
// The validation window is the PTO2 window of pto.go: the search runs on
// Peek (unrecorded in capture mode), then the operation re-reads — through
// Read, which records — the leaf's parent update box and child pointer (and,
// for a removal, the grandparent's). The window is sound for the same
// reason PTO2's is: an internal node spliced out of the tree is first
// marked, which replaces its update box, and any child change refreshes the
// parent's update box; so "update box unchanged and clean, child pointer
// unchanged" implies the parent is still reachable and the leaf is still
// its current child.

// NewPTOIn returns an empty PTO tree living in the shared domain d, so it
// can participate in composed transactions with other structures in d.
// Budgets follow NewPTO (negative selects the paper's defaults).
func NewPTOIn(d *htm.Domain, pto1, pto2 int) *PTOTree {
	if pto1 < 0 {
		pto1 = DefaultPTO1Attempts
	}
	if pto2 < 0 {
		pto2 = DefaultPTO2Attempts
	}
	t := &PTOTree{domain: d, pto1: pto1, pto2: pto2}
	t.WithPolicy(speculate.Fixed(0))
	t.root = t.newInternal(inf2, t.newLeaf(inf1), t.newLeaf(inf2))
	return t
}

// ctxSearch mirrors search over the Ctx accessors, using Peek so the
// traversal stays out of the capture buffer; update fields are read before
// child pointers, as in the original algorithm.
func (t *PTOTree) ctxSearch(c *txn.Ctx, key int64) (gp, p, l *pnode, pupd, gpupd *pupdate) {
	p = t.root
	pupd = txn.Peek(c, &p.update)
	l = txn.Peek(c, &p.left)
	for !l.leaf {
		gp, gpupd = p, pupd
		p = l
		pupd = txn.Peek(c, &p.update)
		if key < p.key {
			l = txn.Peek(c, &p.left)
		} else {
			l = txn.Peek(c, &p.right)
		}
	}
	return
}

// childVar returns the child slot of p the search for key descends through.
func childVar(p *pnode, key int64) *htm.Var[*pnode] {
	if key < p.key {
		return &p.left
	}
	return &p.right
}

// ctxStuck handles an update box that is not clean: on the fast path the
// §2.4 discipline is to abort rather than help; in capture mode the adapter
// performs the helping the fallback would, then restarts the body.
func (t *PTOTree) ctxStuck(c *txn.Ctx, u *pupdate) {
	if !c.Speculative() {
		t.helpVar(u)
	}
	c.Retry()
}

// TxContains reports whether key is present, as part of a composed
// transaction.
func (t *PTOTree) TxContains(c *txn.Ctx, key int64) bool {
	_, p, l, pu, _ := t.ctxSearch(c, key)
	if pu.state != stateClean {
		t.ctxStuck(c, pu)
	}
	if txn.Read(c, &p.update) != pu {
		c.Retry()
	}
	if txn.Read(c, childVar(p, key)) != l {
		c.Retry()
	}
	return l.key == key
}

// TxInsert adds key, reporting false if already present, as part of a
// composed transaction.
func (t *PTOTree) TxInsert(c *txn.Ctx, key int64) bool {
	if key > MaxKey {
		panic("bst: key out of range")
	}
	_, p, l, pu, _ := t.ctxSearch(c, key)
	if pu.state != stateClean {
		t.ctxStuck(c, pu)
	}
	if txn.Read(c, &p.update) != pu {
		c.Retry()
	}
	cv := childVar(p, key)
	if txn.Read(c, cv) != l {
		c.Retry()
	}
	if l.key == key {
		return false
	}
	txn.Write(c, cv, t.buildInsert(key, l))
	txn.Write(c, &p.update, &pupdate{state: stateClean})
	return true
}

// TxRemove deletes key, reporting false if absent, as part of a composed
// transaction. The splice is the transactional removal of pto.go: mark p
// with the static dummy descriptor, swing gp's child to the sibling,
// refresh gp's update box.
func (t *PTOTree) TxRemove(c *txn.Ctx, key int64) bool {
	if key > MaxKey {
		return false // sentinels are never removable
	}
	gp, p, l, pu, gpu := t.ctxSearch(c, key)
	if pu.state != stateClean {
		t.ctxStuck(c, pu)
	}
	if txn.Read(c, &p.update) != pu {
		c.Retry()
	}
	cv := childVar(p, key)
	if txn.Read(c, cv) != l {
		c.Retry()
	}
	if l.key != key {
		return false
	}
	// A leaf holding a real key always has a grandparent (the root plus the
	// internal node its insertion created), so gp is non-nil here.
	if gpu.state != stateClean {
		t.ctxStuck(c, gpu)
	}
	if txn.Read(c, &gp.update) != gpu {
		c.Retry()
	}
	gcv := childVar(gp, key)
	if txn.Read(c, gcv) != p {
		c.Retry()
	}
	var other *pnode
	if txn.Read(c, &p.right) == l {
		other = txn.Read(c, &p.left)
	} else {
		other = txn.Read(c, &p.right)
	}
	txn.Write(c, &p.update, &pupdate{state: stateMark, info: dummyInfo})
	txn.Write(c, gcv, other)
	txn.Write(c, &gp.update, &pupdate{state: stateClean})
	return true
}
