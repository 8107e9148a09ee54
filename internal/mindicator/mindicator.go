// Package mindicator implements a Mindicator-like quiescence structure
// (Liu, Luchangco, Spear 2013): a static complete binary tree that maintains
// the minimum over at most one value per participating thread, with
// operations Arrive (offer a value), Depart (withdraw it), and Query (read
// the current minimum). SNZI and the f-array are its relatives; unlike the
// f-array not every operation must reach the root, and unlike SNZI it
// computes min rather than a saturating bit. This package has the lock-free
// and PTO variants; the TLE variant that Figure 2(a) compares them with
// exists only on the modeled machine, as simds.MindTLE.
//
// # Baseline protocol
//
// Each tree node is one 64-bit word packing a version counter and the node's
// current minimum. An update writes its leaf, then walks toward the root
// repairing each ancestor: read both children, recompute the minimum, and
// install it with a versioned CAS — only when the minimum changes; the walk
// stops at the first ancestor it does not change. Because the child reads
// and the parent CAS are not atomic, the baseline then makes a downward
// validation pass over the same ancestors, re-repairing each and bubbling
// any value it writes toward the root (a value installed by validation must
// be propagated by its writer, or a concurrent updater's early-stopped
// ascent would strand it). PTO drops that pass: inside a transaction the
// child reads and the parent write are atomic, so one upward pass of plain
// stores suffices, each advancing the version by two.
//
// This is not the paper's mark/unmark protocol, which simds.Mindicator
// models and Figure 2(a) runs: there every visited node gets a versioned
// CAS going up and again coming down, and the leaf is unmarked at the end.
// A PTO/LF ratio of this package is taken against this package's baseline.
//
// Deviation from the original: the original Mindicator's Query is
// linearizable; this variant guarantees quiescent consistency and
// self-visibility after repair settles, which is sufficient for its standard
// uses (quiescence detection, minimum-epoch tracking) and for reproducing the
// paper's cost structure. See DESIGN.md §8.
package mindicator

import (
	"math"
	"sync/atomic"

	"repro/internal/htm"
	"repro/internal/speculate"
)

// Infinity is the encoded "no value" sentinel. Values passed to Arrive must
// be less than math.MaxInt32.
const infEnc = math.MaxUint32

// enc maps int32 values to uint32 so that unsigned comparison matches signed
// comparison, reserving the top encoding for "absent".
func enc(v int32) uint32 { return uint32(v) ^ 0x80000000 }

func dec(e uint32) int32 { return int32(e ^ 0x80000000) }

// pack combines a version counter and an encoded value into a node word.
func pack(ver uint32, val uint32) uint64 { return uint64(ver)<<32 | uint64(val) }

func unpack(w uint64) (ver uint32, val uint32) { return uint32(w >> 32), uint32(w) }

// Tree is the lock-free baseline Mindicator. Slots (leaves) are assigned to
// threads by the caller; the default mapping used by the benchmarks assigns
// thread i to slot i, left to right, as in the paper.
type Tree struct {
	leaves int
	nodes  []atomic.Uint64
}

// New returns a Mindicator with the given number of leaves, which must be a
// power of two and at least 2.
func New(leaves int) *Tree {
	if leaves < 2 || leaves&(leaves-1) != 0 {
		panic("mindicator: leaves must be a power of two ≥ 2")
	}
	t := &Tree{leaves: leaves, nodes: make([]atomic.Uint64, 2*leaves-1)}
	for i := range t.nodes {
		t.nodes[i].Store(pack(0, infEnc))
	}
	return t
}

func (t *Tree) leafIndex(slot int) int { return t.leaves - 1 + slot }

// setLeaf installs val at the slot's leaf with a version bump.
func (t *Tree) setLeaf(slot int, val uint32) {
	i := t.leafIndex(slot)
	for {
		old := t.nodes[i].Load()
		ver, _ := unpack(old)
		if t.nodes[i].CompareAndSwap(old, pack(ver+1, val)) {
			return
		}
	}
}

// repair makes node i consistent with its children once, returning whether it
// wrote (changed the value). Used for the optimistic upward pass.
func (t *Tree) repair(i int) bool {
	for {
		lv := func() uint32 { _, v := unpack(t.nodes[2*i+1].Load()); return v }()
		rv := func() uint32 { _, v := unpack(t.nodes[2*i+2].Load()); return v }()
		m := min(lv, rv)
		cur := t.nodes[i].Load()
		ver, val := unpack(cur)
		if val == m {
			return false
		}
		if t.nodes[i].CompareAndSwap(cur, pack(ver+1, m)) {
			return true
		}
	}
}

// validate repairs node i until a fresh read of the children confirms the
// installed value, then bubbles any value it wrote toward the root. The
// upward pass's early stop is sound only under the discipline that every
// installed value is propagated upward by its writer: without the bubbling,
// a validation write could park a concurrent updater's minimum at i while
// that updater early-stops below, trusting i's writer to carry it up — and
// the root would never reflect a settled value.
func (t *Tree) validate(i int) {
	for {
		wrote := false
		for t.repair(i) {
			wrote = true
		}
		if !wrote || i == 0 {
			return
		}
		i = parent(i)
	}
}

// update writes val to the slot's leaf and restores the min-tree invariant
// along the leaf-to-root path: an upward optimistic pass with early stopping,
// then a downward validation pass over the visited ancestors.
func (t *Tree) update(slot int, val uint32) {
	t.setLeaf(slot, val)
	var visited [64]int
	n := 0
	for i := parent(t.leafIndex(slot)); ; i = parent(i) {
		visited[n] = i
		n++
		if !t.repair(i) {
			break
		}
		if i == 0 {
			break
		}
	}
	for k := n - 1; k >= 0; k-- {
		t.validate(visited[k])
	}
}

func parent(i int) int { return (i - 1) / 2 }

// Arrive offers v as the calling thread's value. The thread must have
// departed (or never arrived) before arriving again. v must be < MaxInt32.
func (t *Tree) Arrive(slot int, v int32) { t.update(slot, enc(v)) }

// Depart withdraws the calling thread's value.
func (t *Tree) Depart(slot int) { t.update(slot, infEnc) }

// Query returns the current minimum over arrived values, and false if no
// thread is arrived.
func (t *Tree) Query() (int32, bool) {
	_, val := unpack(t.nodes[0].Load())
	if val == infEnc {
		return 0, false
	}
	return dec(val), true
}

// PTO is the prefix-transaction-accelerated Mindicator: the whole update runs
// as one transaction that coalesces the mark and unmark version bumps into a
// single +2 store per node and performs no downward pass; after the tuned
// number of attempts (three, per §3.1) it falls back to the baseline
// protocol. Query is unchanged.
type PTO struct {
	domain  *htm.Domain
	leaves  int
	nodes   []htm.Var[uint64]
	retries int
	site    *speculate.Site
}

// DefaultAttempts is the retry threshold the paper settled on for the
// Mindicator ("a choice of three attempts yielded the best performance").
const DefaultAttempts = 3

// NewPTO returns a PTO-accelerated Mindicator. attempts ≤ 0 selects
// DefaultAttempts.
func NewPTO(leaves, attempts int) *PTO {
	if leaves < 2 || leaves&(leaves-1) != 0 {
		panic("mindicator: leaves must be a power of two ≥ 2")
	}
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	p := &PTO{
		domain:  htm.NewDomain(0, 0),
		leaves:  leaves,
		nodes:   make([]htm.Var[uint64], 2*leaves-1),
		retries: attempts,
	}
	p.WithPolicy(speculate.Fixed(0))
	for i := range p.nodes {
		p.nodes[i].Init(p.domain, pack(0, infEnc))
	}
	return p
}

// WithPolicy replaces the speculation policy governing the update retry
// loop. The default, speculate.Fixed(0), reproduces the historical behavior:
// up to `attempts` tries, then the baseline fallback. Returns p for
// chaining.
func (p *PTO) WithPolicy(pol speculate.Policy) *PTO {
	p.site = pol.Site("mindicator/update", 1,
		speculate.Level{Name: "pto", Attempts: p.retries})
	return p
}

// Domain exposes the transactional domain (for tests).
func (p *PTO) Domain() *htm.Domain { return p.domain }

func (p *PTO) update(slot int, val uint32) {
	leaf := p.leaves - 1 + slot
	r := p.site.Begin(p.domain)
	for r.Next(0) {
		st := r.Try(func(tx *htm.Tx) {
			// Prefix transaction: one pass, one plain store per node, version
			// advanced by two (coalesced mark+unmark), no downward traversal.
			w := htm.Load(tx, &p.nodes[leaf])
			ver, _ := unpack(w)
			htm.Store(tx, &p.nodes[leaf], pack(ver+2, val))
			for i := parent(leaf); ; i = parent(i) {
				_, lv := unpack(htm.Load(tx, &p.nodes[2*i+1]))
				_, rv := unpack(htm.Load(tx, &p.nodes[2*i+2]))
				m := min(lv, rv)
				cur := htm.Load(tx, &p.nodes[i])
				cver, cval := unpack(cur)
				if cval == m {
					break
				}
				htm.Store(tx, &p.nodes[i], pack(cver+2, m))
				if i == 0 {
					break
				}
			}
		})
		if st == htm.Committed {
			return
		}
	}
	r.Fallback()
	p.fallback(slot, val)
}

// fallback is the original baseline protocol expressed over the transactional
// Vars (the fallback path of the prefix transaction transformation).
func (p *PTO) fallback(slot int, val uint32) {
	leaf := p.leaves - 1 + slot
	for {
		old := htm.Load(nil, &p.nodes[leaf])
		ver, _ := unpack(old)
		if htm.CAS(nil, &p.nodes[leaf], old, pack(ver+1, val)) {
			break
		}
	}
	var visited [64]int
	n := 0
	for i := parent(leaf); ; i = parent(i) {
		visited[n] = i
		n++
		if !p.repairVar(i) {
			break
		}
		if i == 0 {
			break
		}
	}
	for k := n - 1; k >= 0; k-- {
		// Settle the node, and bubble any write toward the root — same
		// discipline as Tree.validate: a value installed by the validation
		// pass must be propagated by its writer, or a concurrent updater's
		// early-stopped ascent strands it below the root.
		for i := visited[k]; ; {
			wrote := false
			for p.repairVar(i) {
				wrote = true
			}
			if !wrote || i == 0 {
				break
			}
			i = parent(i)
		}
	}
}

func (p *PTO) repairVar(i int) bool {
	for {
		_, lv := unpack(htm.Load(nil, &p.nodes[2*i+1]))
		_, rv := unpack(htm.Load(nil, &p.nodes[2*i+2]))
		m := min(lv, rv)
		cur := htm.Load(nil, &p.nodes[i])
		ver, val := unpack(cur)
		if val == m {
			return false
		}
		if htm.CAS(nil, &p.nodes[i], cur, pack(ver+1, m)) {
			return true
		}
	}
}

// Arrive offers v as the calling thread's value.
func (p *PTO) Arrive(slot int, v int32) { p.update(slot, enc(v)) }

// Depart withdraws the calling thread's value.
func (p *PTO) Depart(slot int) { p.update(slot, infEnc) }

// Query returns the current minimum over arrived values.
func (p *PTO) Query() (int32, bool) {
	_, val := unpack(htm.Load(nil, &p.nodes[0]))
	if val == infEnc {
		return 0, false
	}
	return dec(val), true
}
