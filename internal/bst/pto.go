package bst

import (
	"repro/internal/htm"
	"repro/internal/speculate"
)

// This file implements the PTO-accelerated BST of §3.2/§4.4.
//
// PTO1 runs the entire operation — search and update — inside one prefix
// transaction. The flag/unflag protocol collapses: no Info record is
// allocated, the update field is simply refreshed with a new clean box (the
// paper's observation that the node "is restored to a clean state at the end
// of the transaction"), and a removal installs the static dummy descriptor in
// the marked node, which subsequent operations ignore.
//
// PTO2 keeps the search outside the transaction and runs only the update
// phase speculatively, validating the update fields and child pointers the
// search observed. This shrinks the contention window (higher scalability)
// but pays the search's double-check overhead (higher latency) — the
// trade-off Figure 5(a) quantifies.
//
// The composed tree attempts PTO1 twice, then PTO2 sixteen times, then runs
// the original lock-free algorithm, exactly the paper's tuning.

// Default attempt budgets from §4.4.
const (
	DefaultPTO1Attempts = 2
	DefaultPTO2Attempts = 16
)

// Abort codes used by the speculative paths.
const (
	abortWouldHelp = 1 // observed a flagged node; §2.4 says abort, don't help
)

type pinfo struct {
	gp, p       *pnode
	l           *pnode
	newInternal *pnode
	pupdate     *pupdate
}

type pupdate struct {
	state int
	info  *pinfo
}

// dummyInfo is the unique statically allocated descriptor installed by
// transactional removals in place of a DInfo record (§3.2). Helpers ignore
// it: by the time it is visible the removal has already committed in full.
var dummyInfo = &pinfo{}

type pnode struct {
	key         int64
	leaf        bool
	left, right htm.Var[*pnode]
	update      htm.Var[*pupdate]
}

// PTOTree is the PTO-accelerated BST. pto1 and pto2 are per-operation
// attempt budgets for the two transaction levels; either may be zero to
// disable that level (giving the pure PTO1 or PTO2 variants of Figure 5(a)).
type PTOTree struct {
	domain *htm.Domain
	root   *pnode
	pto1   int
	pto2   int

	conSite *speculate.Site
	insSite *speculate.Site
	rmSite  *speculate.Site
}

// NewPTO returns an empty PTO tree with the given attempt budgets; negative
// values select the paper's defaults (2 and 16). The tree runs under the
// default fixed speculation policy; use WithPolicy to change it.
func NewPTO(pto1, pto2 int) *PTOTree {
	return NewPTOIn(htm.NewDomain(0, 0), pto1, pto2)
}

// WithPolicy installs the speculation policy governing the tree's attempt
// loops. Call before the tree is shared between goroutines.
func (t *PTOTree) WithPolicy(p speculate.Policy) *PTOTree {
	// Contains runs only the whole-operation (PTO1) level.
	t.conSite = p.Site("bst/contains", 1,
		speculate.Level{Name: "pto1", Attempts: t.pto1, RetryExplicit: true})
	t.insSite = p.Site("bst/insert", 1,
		speculate.Level{Name: "pto1", Attempts: t.pto1},
		speculate.Level{Name: "pto2", Attempts: t.pto2, RetryExplicit: true})
	t.rmSite = p.Site("bst/remove", 1,
		speculate.Level{Name: "pto1", Attempts: t.pto1},
		speculate.Level{Name: "pto2", Attempts: t.pto2, RetryExplicit: true})
	return t
}

// NewPTO1 returns a tree using only whole-operation transactions.
func NewPTO1() *PTOTree { return NewPTO(DefaultPTO1Attempts, 0) }

// NewPTO2 returns a tree using only update-phase transactions.
func NewPTO2() *PTOTree { return NewPTO(0, DefaultPTO2Attempts) }

// NewPTO12 returns the composed variant (PTO1 then PTO2 then fallback).
func NewPTO12() *PTOTree { return NewPTO(-1, -1) }

// Domain exposes the transactional domain (for tests).
func (t *PTOTree) Domain() *htm.Domain { return t.domain }

func (t *PTOTree) newLeaf(key int64) *pnode {
	n := &pnode{key: key, leaf: true}
	n.left.Init(t.domain, nil)
	n.right.Init(t.domain, nil)
	n.update.Init(t.domain, nil)
	return n
}

func (t *PTOTree) newInternal(key int64, left, right *pnode) *pnode {
	n := &pnode{key: key}
	n.left.Init(t.domain, left)
	n.right.Init(t.domain, right)
	n.update.Init(t.domain, &pupdate{state: stateClean})
	return n
}

// search descends to key's leaf on the direct path. Update fields are read
// before the child pointers, as in the original algorithm.
func (t *PTOTree) search(key int64) (gp, p, l *pnode, pupd, gpupd *pupdate) {
	p = t.root
	pupd = htm.Load(nil, &p.update)
	l = htm.Load(nil, &p.left)
	for !l.leaf {
		gp, gpupd = p, pupd
		p = l
		pupd = htm.Load(nil, &p.update)
		l = htm.Load(nil, childVar(p, key))
	}
	return
}

// descend is search inside a transaction. The transaction's reads form one
// snapshot, so the per-node update reads that pair each child with its
// parent's state are the double-checks stage 2 removes: descend reads child
// links only, and the caller loads the update words its answer needs, once,
// at the end (the twin's searchTx).
func (t *PTOTree) descend(tx *htm.Tx, key int64) (gp, p, l *pnode) {
	p = t.root
	l = htm.Load(tx, &p.left)
	for !l.leaf {
		gp, p = p, l
		l = htm.Load(tx, childVar(p, key))
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

// siblingVar returns p's other child slot.
func siblingVar(p *pnode, key int64) *htm.Var[*pnode] {
	if key < p.key {
		return &p.right
	}
	return &p.left
}

// Contains reports whether key is in the set. PTO1 runs the whole lookup in
// a read-only transaction (eliding the double-checks the original needs, and
// reading no update word: the leaf alone is the answer); on abort it falls
// back to the plain wait-free traversal.
func (t *PTOTree) Contains(key int64) bool {
	r := t.conSite.Begin(t.domain)
	for r.Next(0) {
		var found bool
		if r.Try(func(tx *htm.Tx) {
			_, _, l := t.descend(tx, key)
			found = l.key == key
		}) == htm.Committed {
			return found
		}
	}
	r.Fallback()
	_, _, l, _, _ := t.search(key)
	return l.key == key
}

// buildInsert creates the replacement subtree for inserting key at leaf l.
func (t *PTOTree) buildInsert(key int64, l *pnode) *pnode {
	nl := t.newLeaf(key)
	lc := t.newLeaf(l.key)
	var left, right *pnode
	if key < l.key {
		left, right = nl, lc
	} else {
		left, right = lc, nl
	}
	return t.newInternal(max(key, l.key), left, right)
}

// Insert adds key, reporting false if already present.
func (t *PTOTree) Insert(key int64) bool {
	if key > MaxKey {
		panic("bst: key out of range")
	}
	r := t.insSite.Begin(t.domain)
	// PTO1: whole operation in one transaction.
	for r.Next(0) {
		var result bool
		if r.Try(func(tx *htm.Tx) {
			_, p, l := t.descend(tx, key)
			if l.key == key {
				result = false
				return
			}
			if htm.Load(tx, &p.update).state != stateClean {
				tx.Abort(abortWouldHelp)
			}
			ni := t.buildInsert(key, l)
			htm.Store(tx, childVar(p, key), ni)
			// Refresh the update box: no descriptor, state stays clean, but
			// the new identity preserves the "children change ⇒ update
			// changes" invariant the fallback protocol validates against.
			htm.Store(tx, &p.update, &pupdate{state: stateClean})
			result = true
		}) == htm.Committed {
			return result
		}
	}
	// PTO2: non-transactional search, transactional update phase.
	for r.Next(1) {
		_, p, l, pupd, _ := t.search(key)
		if l.key == key {
			return false
		}
		if pupd.state != stateClean {
			r.Skip() // would need helping; burn an attempt instead (§2.4)
			continue
		}
		ni := t.buildInsert(key, l)
		if r.Try(func(tx *htm.Tx) {
			if htm.Load(tx, &p.update) != pupd {
				tx.Abort(abortWouldHelp)
			}
			cv := childVar(p, key)
			if htm.Load(tx, cv) != l {
				tx.Abort(abortWouldHelp)
			}
			htm.Store(tx, cv, ni)
			htm.Store(tx, &p.update, &pupdate{state: stateClean})
		}) == htm.Committed {
			return true
		}
	}
	r.Fallback()
	return t.insertFallback(key)
}

// Remove deletes key, reporting false if absent.
func (t *PTOTree) Remove(key int64) bool {
	if key > MaxKey {
		return false // sentinels are never removable
	}
	r := t.rmSite.Begin(t.domain)
	// PTO1: whole operation in one transaction.
	for r.Next(0) {
		var result bool
		if r.Try(func(tx *htm.Tx) {
			gp, p, l := t.descend(tx, key)
			if l.key != key {
				result = false
				return
			}
			if htm.Load(tx, &gp.update).state != stateClean || htm.Load(tx, &p.update).state != stateClean {
				tx.Abort(abortWouldHelp)
			}
			t.txSplice(tx, gp, p, key)
			result = true
		}) == htm.Committed {
			return result
		}
	}
	// PTO2: non-transactional search, transactional update phase.
	for r.Next(1) {
		gp, p, l, pupd, gpupd := t.search(key)
		if l.key != key {
			return false
		}
		if gpupd.state != stateClean || pupd.state != stateClean {
			r.Skip()
			continue
		}
		st := r.Try(func(tx *htm.Tx) {
			if htm.Load(tx, &gp.update) != gpupd || htm.Load(tx, &p.update) != pupd {
				tx.Abort(abortWouldHelp)
			}
			if htm.Load(tx, childVar(gp, key)) != p || htm.Load(tx, childVar(p, key)) != l {
				tx.Abort(abortWouldHelp)
			}
			t.txSplice(tx, gp, p, key)
		})
		if st == htm.Committed {
			return true
		}
	}
	r.Fallback()
	return t.removeFallback(key)
}

// txSplice performs the entire removal inside a transaction whose search
// for key led through gp and p to a leaf: mark p with the static dummy
// descriptor, swing gp's child to the leaf's sibling, and refresh gp's
// update box.
func (t *PTOTree) txSplice(tx *htm.Tx, gp, p *pnode, key int64) {
	other := htm.Load(tx, siblingVar(p, key))
	htm.Store(tx, &p.update, &pupdate{state: stateMark, info: dummyInfo})
	htm.Store(tx, childVar(gp, key), other)
	htm.Store(tx, &gp.update, &pupdate{state: stateClean})
}

// The remainder of the file is the original Ellen et al. protocol expressed
// over transactional Vars: the fallback path of the prefix transactions.

func (t *PTOTree) insertFallback(key int64) bool {
	for {
		_, p, l, pupd, _ := t.search(key)
		if l.key == key {
			return false
		}
		if pupd.state != stateClean {
			t.helpVar(pupd)
			continue
		}
		ni := t.buildInsert(key, l)
		op := &pinfo{p: p, l: l, newInternal: ni}
		iflag := &pupdate{state: stateIFlag, info: op}
		if htm.CAS(nil, &p.update, pupd, iflag) {
			t.helpInsertVar(iflag)
			return true
		}
		t.helpVar(htm.Load(nil, &p.update))
	}
}

func (t *PTOTree) removeFallback(key int64) bool {
	for {
		gp, p, l, pupd, gpupd := t.search(key)
		if l.key != key {
			return false
		}
		if gpupd.state != stateClean {
			t.helpVar(gpupd)
			continue
		}
		if pupd.state != stateClean {
			t.helpVar(pupd)
			continue
		}
		op := &pinfo{gp: gp, p: p, l: l, pupdate: pupd}
		dflag := &pupdate{state: stateDFlag, info: op}
		if htm.CAS(nil, &gp.update, gpupd, dflag) {
			if t.helpDeleteVar(dflag) {
				return true
			}
		} else {
			t.helpVar(htm.Load(nil, &gp.update))
		}
	}
}

func (t *PTOTree) helpVar(u *pupdate) {
	switch u.state {
	case stateIFlag:
		t.helpInsertVar(u)
	case stateDFlag:
		t.helpDeleteVar(u)
	case stateMark:
		op := u.info
		if op == dummyInfo {
			return // transactional removal: already complete (§3.2)
		}
		g := htm.Load(nil, &op.gp.update)
		if g.state == stateDFlag && g.info == op {
			t.helpMarkedVar(g)
		}
	}
}

func (t *PTOTree) helpInsertVar(u *pupdate) {
	op := u.info
	casChildVar(op.p, op.l, op.newInternal)
	htm.CAS(nil, &op.p.update, u, &pupdate{state: stateClean, info: op})
}

func (t *PTOTree) helpDeleteVar(u *pupdate) bool {
	op := u.info
	mark := &pupdate{state: stateMark, info: op}
	if htm.CAS(nil, &op.p.update, op.pupdate, mark) {
		t.helpMarkedVar(u)
		return true
	}
	cur := htm.Load(nil, &op.p.update)
	if cur.state == stateMark && cur.info == op {
		t.helpMarkedVar(u)
		return true
	}
	t.helpVar(cur)
	htm.CAS(nil, &op.gp.update, u, &pupdate{state: stateClean, info: op})
	return false
}

func (t *PTOTree) helpMarkedVar(u *pupdate) {
	op := u.info
	var other *pnode
	if htm.Load(nil, &op.p.right) == op.l {
		other = htm.Load(nil, &op.p.left)
	} else {
		other = htm.Load(nil, &op.p.right)
	}
	casChildVar(op.gp, op.p, other)
	htm.CAS(nil, &op.gp.update, u, &pupdate{state: stateClean, info: op})
}

func casChildVar(parent, old, new *pnode) {
	if htm.Load(nil, &parent.left) == old {
		htm.CAS(nil, &parent.left, old, new)
	} else {
		htm.CAS(nil, &parent.right, old, new)
	}
}

// Len counts keys. O(n); for tests and examples.
func (t *PTOTree) Len() int { return len(t.Keys()) }

// Keys returns the keys in order. O(n); for tests and examples.
func (t *PTOTree) Keys() []int64 {
	var out []int64
	var walk func(n *pnode)
	walk = func(n *pnode) {
		if n.leaf {
			if n.key <= MaxKey {
				out = append(out, n.key)
			}
			return
		}
		walk(htm.Load(nil, &n.left))
		walk(htm.Load(nil, &n.right))
	}
	walk(t.root)
	return out
}
