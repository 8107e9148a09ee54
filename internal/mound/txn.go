package mound

import (
	"repro/internal/htm"
	"repro/internal/txn"
)

// This file is the Mound's adapter to the transactional composition layer
// (internal/txn), on the shared txnops PQ contract. Node words are plain
// htm.Var[uint64] cells and the Mound's own DCAS fallback is htm.MultiCAS —
// the protocol composed transactions publish with — so composed and raw
// operations meet through the domain's one descriptor protocol and the
// adapter reads and writes words with txn.Peek/Read/Write directly.

// NewPTOIn returns an empty PTO-accelerated mound living in the shared
// domain d, so it can participate in composed transactions with other
// structures in d. maxDepth and attempts follow NewPTO.
func NewPTOIn(d *htm.Domain, maxDepth, attempts int) *Mound {
	m := newMound(maxDepth)
	m.be = newPTOBackendIn(d, m.size, attempts)
	return m
}

// pto asserts the composed-capable backend: composition is a PTO feature
// (the baseline's raw mcas words cannot join an htm domain).
func (m *Mound) pto() *ptoBackend {
	b, ok := m.be.(*ptoBackend)
	if !ok {
		panic("mound: composed operations require a PTO-backed mound (NewPTO/NewPTOIn)")
	}
	return b
}

// TxPush adds v to the queue as part of a composed transaction. The search
// mirrors Insert — random leaf probes, then a binary search of the
// root-to-leaf path — over Peek reads; the validated window is the target
// word plus, off the root, the parent word as the DCSS guard leg (a
// validation-only read: its value is re-asserted at commit but not
// written).
//
// Unlike the raw Insert, TxPush accepts a *dirty* candidate node, preserving
// its dirty bit: pushing v ≤ head only lowers the node's list head, which
// cannot worsen the heap-order violation the dirt already flags, and whoever
// dirtied the node still owns the moundify that clears it. This is load-
// bearing for composition — MoveMin's undo path pushes the just-popped
// minimum back into a root this same transaction staged dirty, where no
// amount of helping can clean the (purely speculative) dirt; rejecting dirty
// nodes there retries forever. The parent guard still requires a *clean*
// parent ≤ v, so order above the insertion point is asserted, not assumed.
func (m *Mound) TxPush(c *txn.Ctx, v int64) {
	if v < 0 || v > MaxValue {
		panic("mound: value out of range")
	}
	b := m.pto()
	probes := 0
	for {
		d := m.depth.Load()
		leaf := m.randomLeaf(int(d))
		lw := txn.Peek(c, &b.words[leaf])
		if m.val(lw) < v || wordDirty(lw) {
			probes++
			if probes >= probesPerLevel {
				probes = 0
				if int(d) < m.maxDepth {
					m.grow(d)
					continue
				}
				leaf = 0
				for id := 1 << d; id < m.size; id++ {
					if w := txn.Peek(c, &b.words[id]); !wordDirty(w) && m.val(w) >= v {
						leaf, lw = id, w
						break
					}
				}
				if leaf == 0 {
					panic("mound: capacity exhausted at maximum depth")
				}
			} else {
				continue
			}
		}
		nID, nw := leaf, lw
		lo, hi := 0, int(d)
		for lo < hi {
			mid := (lo + hi) / 2
			id := leaf >> (int(d) - mid)
			w := txn.Peek(c, &b.words[id])
			if m.val(w) >= v {
				hi = mid
				nID, nw = id, w
			} else {
				lo = mid + 1
			}
		}
		if m.val(nw) < v {
			continue
		}
		if txn.Read(c, &b.words[nID]) != nw {
			c.Retry()
		}
		if nID != 1 {
			pw := txn.Read(c, &b.words[nID>>1]) // DCSS guard: parent must stay clean and ≤ v
			if wordDirty(pw) || m.val(pw) > v {
				c.Retry()
			}
		}
		idx := m.pool.alloc(v, wordIdx(nw))
		txn.Write(c, &b.words[nID], bump(nw, wordDirty(nw), idx))
		return
	}
}

// TxMin reads the minimum without removing it, reporting false on an empty
// mound, as part of a composed transaction. The root word joins the
// validated footprint, so the committed answer proves what the minimum was
// at the linearization point — the semantic min item open transactions
// (internal/semtx) validate. A dirty root is helped clean in capture mode,
// exactly as TxPopMin does.
func (m *Mound) TxMin(c *txn.Ctx) (int64, bool) {
	b := m.pto()
	w := txn.Read(c, &b.words[1])
	if wordDirty(w) {
		if !c.Speculative() {
			m.moundify(1)
		}
		c.Retry()
	}
	i := wordIdx(w)
	if i == 0 {
		return 0, false
	}
	return m.pool.node(i).val, true
}

// TxPopMin removes and returns the minimum as part of a composed
// transaction, reporting false on an empty mound. The pop writes the root
// word dirty in the atomic step; the invariant restoration (moundify) runs
// after commit, exactly as the structure's own RemoveMin runs it after its
// root CAS.
//
// At most one TxPopMin per mound per transaction: the pop stages a dirty
// root, and the next minimum is unknowable until the post-commit moundify
// runs, so a second pop in the same atomic step would retry without bound
// (helping cannot clear dirt that exists only in this transaction's view).
// TxPush after TxPopMin is fine — that is MoveMin's undo path.
func (m *Mound) TxPopMin(c *txn.Ctx) (int64, bool) {
	b := m.pto()
	w := txn.Read(c, &b.words[1])
	if wordDirty(w) {
		if !c.Speculative() {
			m.moundify(1) // help clear the dirt, then re-run the body
		}
		c.Retry()
	}
	i := wordIdx(w)
	if i == 0 {
		return 0, false // clean empty root, validated at commit
	}
	ln := m.pool.node(i)
	txn.Write(c, &b.words[1], bump(w, true, ln.next))
	c.OnCommit(func() { m.moundify(1) })
	return ln.val, true
}
