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
// In capture mode the validation window is the PTO2 window of pto.go: the
// search runs on Peek (unrecorded), then the operation re-reads — through
// Read, which records — the leaf's parent update box and child pointer (and,
// for a removal, the grandparent's). The window is sound for the same
// reason PTO2's is: an internal node spliced out of the tree is first
// marked, which replaces its update box, and any child change refreshes the
// parent's update box; so "update box unchanged and clean, child pointer
// unchanged" implies the parent is still reachable and the leaf is still
// its current child.
//
// On the fast path every read is a transactional load and the body's reads
// form one snapshot, so there is no window to re-read: the search reads
// child links only (PTO1's descend), and each update word the operation
// needs is read once, after it.

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
// traversal stays out of the capture buffer. In capture mode update fields
// are read before child pointers, as in the original algorithm, and
// returned for ctxWindow to re-read; on the fast path only child links are
// read and pupd, gpupd are nil.
func (t *PTOTree) ctxSearch(c *txn.Ctx, key int64) (gp, p, l *pnode, pupd, gpupd *pupdate) {
	capture := !c.Speculative()
	p = t.root
	if capture {
		pupd = txn.Peek(c, &p.update)
	}
	l = txn.Peek(c, &p.left)
	for !l.leaf {
		gp, gpupd = p, pupd
		p = l
		if capture {
			pupd = txn.Peek(c, &p.update)
		}
		l = txn.Peek(c, childVar(p, key))
	}
	return
}

// ctxWindow establishes that p's update word is clean and that l is p's
// child on key's side, and returns that child slot. pu is what ctxSearch
// returned for p. On the fast path the word is read here, once, and the
// slot not again; in capture mode both are re-read through Read, which
// records them for the MultiCAS.
func (t *PTOTree) ctxWindow(c *txn.Ctx, p, l *pnode, pu *pupdate, key int64) *htm.Var[*pnode] {
	cv := childVar(p, key)
	if c.Speculative() {
		if pu = txn.Read(c, &p.update); pu.state != stateClean {
			t.ctxStuck(c, pu)
		}
		return cv
	}
	if pu.state != stateClean {
		t.ctxStuck(c, pu)
	}
	if txn.Read(c, &p.update) != pu || txn.Read(c, cv) != l {
		c.Retry()
	}
	return cv
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
	t.ctxWindow(c, p, l, pu, key)
	return l.key == key
}

// TxInsert adds key, reporting false if already present, as part of a
// composed transaction.
func (t *PTOTree) TxInsert(c *txn.Ctx, key int64) bool {
	if key > MaxKey {
		panic("bst: key out of range")
	}
	_, p, l, pu, _ := t.ctxSearch(c, key)
	cv := t.ctxWindow(c, p, l, pu, key)
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
	t.ctxWindow(c, p, l, pu, key)
	if l.key != key {
		return false
	}
	// A leaf holding a real key always has a grandparent (the root plus the
	// internal node its insertion created), so gp is non-nil here.
	gcv := t.ctxWindow(c, gp, p, gpu, key)
	other := txn.Read(c, siblingVar(p, key))
	txn.Write(c, &p.update, &pupdate{state: stateMark, info: dummyInfo})
	txn.Write(c, gcv, other)
	txn.Write(c, &gp.update, &pupdate{state: stateClean})
	return true
}
