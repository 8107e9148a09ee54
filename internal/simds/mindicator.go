package simds

import (
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// This file hosts the Mindicator (§3.1, Figure 2(a)) on the simulated
// machine: the lock-free baseline with its two-pass versioned-CAS protocol,
// the PTO form whose single transaction coalesces the mark and unmark
// version bumps into one +2 store per node and drops the downward pass, and
// the TLE comparison point (sequential min-tree under one elided lock).
// The protocol matches internal/mindicator; see that package for the
// correctness discussion.

// MindKind selects the Mindicator variant.
type MindKind int

const (
	// MindLockfree is the baseline two-pass CAS protocol.
	MindLockfree MindKind = iota
	// MindPTO is the prefix-transaction form (retry 3, then baseline).
	MindPTO
	// MindTLE is a sequential min-tree under transactional lock elision.
	MindTLE
)

const mindInf = 0xFFFFFFFF

// Mindicator is the simulated quiescence tree. Each node occupies its own
// cache line; the node word packs (version<<32 | encoded value).
type Mindicator struct {
	kind   MindKind
	leaves int
	base   sim.Addr
	lock   sim.Addr // TLE only
	site   *simspec.Site
}

// NewMindicator builds a Mindicator with the given leaf count (power of
// two) using setup thread t.
func NewMindicator(t *sim.Thread, kind MindKind, leaves int) *Mindicator {
	m := &Mindicator{kind: kind, leaves: leaves}
	n := 2*leaves - 1
	m.base = t.Alloc(n * sim.LineWords)
	for i := 0; i < n; i++ {
		t.Store(m.node(i), mindInf)
	}
	if kind == MindTLE {
		m.lock = t.Alloc(1)
	}
	return m.WithPolicy(simspec.DefaultPolicy())
}

// WithPolicy installs the speculation policy for the update site. The
// level budget of 3 attempts is the paper's tuning; Policy.Attempts
// overrides it when positive. Set before use.
func (m *Mindicator) WithPolicy(p speculate.Policy) *Mindicator {
	name := "pto"
	if m.kind == MindTLE {
		name = "tle"
	}
	// Both an eliding transaction's lock-held abort (explicit) and a data
	// conflict are transient here, so the level retries on explicit.
	m.site = simspec.New("simmind/update", p,
		speculate.Level{Name: name, Attempts: 3, RetryExplicit: true})
	return m
}

func (m *Mindicator) node(i int) sim.Addr { return m.base + sim.Addr(i*sim.LineWords) }

func mindEnc(v int32) uint64 { return uint64(uint32(v) ^ 0x80000000) }

func mindVal(w uint64) uint64 { return w & 0xFFFFFFFF }

func mindBump(w uint64, val uint64, by uint64) uint64 {
	return (w>>32+by)<<32 | val
}

// Arrive offers v as slot's value; Depart withdraws it.
func (m *Mindicator) Arrive(t *sim.Thread, slot int, v int32) { m.update(t, slot, mindEnc(v)) }

// Depart withdraws slot's value.
func (m *Mindicator) Depart(t *sim.Thread, slot int) { m.update(t, slot, mindInf) }

// Query returns the encoded minimum (mindInf when empty).
func (m *Mindicator) Query(t *sim.Thread) uint64 {
	return mindVal(t.Load(m.node(0)))
}

func (m *Mindicator) update(t *sim.Thread, slot int, val uint64) {
	switch m.kind {
	case MindLockfree:
		m.updateLF(t, slot, val)
	case MindPTO:
		r := m.site.Begin(t)
		for r.Next(0) {
			if r.Try(func() { m.updateTx(t, slot, val) }) == sim.OK {
				return
			}
		}
		// Single-level PTO: back off even before the fallback, which
		// contends on the same lines as the transaction did.
		r.DrainBackoff()
		r.Fallback()
		m.updateLF(t, slot, val)
	case MindTLE:
		r := m.site.Begin(t)
		for r.Next(0) {
			st := r.Try(func() {
				if t.Load(m.lock) != 0 {
					t.TxAbort(1)
				}
				m.updateSeq(t, slot, val)
			})
			if st == sim.OK {
				return
			}
		}
		r.Fallback()
		for !t.CAS(m.lock, 0, 1) {
		}
		m.updateSeq(t, slot, val)
		t.Fence()
		t.Store(m.lock, 0)
	}
}

// updateLF is the baseline protocol: a marking pass ascends the tree,
// CASing each visited node's version to odd (marked) with the recomputed
// minimum, and an unmarking pass descends back to the leaf, CASing each
// version to even while re-validating against the children. Both passes
// pay one CAS per node — the "increments to a per-node counter" that the
// PTO transaction coalesces into a single +2 store, eliminating the
// downward traversal entirely (§3.1).
func (m *Mindicator) updateLF(t *sim.Thread, slot int, val uint64) {
	leaf := m.leaves - 1 + slot
	for {
		w := t.Load(m.node(leaf))
		if t.CAS(m.node(leaf), w, mindBump(w, val, 1)) {
			break
		}
	}
	var visited [64]int
	n := 0
	for i := (leaf - 1) / 2; ; i = (i - 1) / 2 {
		visited[n] = i
		n++
		if !m.repair(t, i, true) {
			break
		}
		if i == 0 {
			break
		}
	}
	for k := n - 1; k >= 0; k-- {
		m.repair(t, visited[k], false)
	}
	// Unmark the leaf (restore even parity).
	for {
		w := t.Load(m.node(leaf))
		if t.CAS(m.node(leaf), w, mindBump(w, mindVal(w), 1)) {
			break
		}
	}
}

// repair recomputes node i from its children and installs the result with a
// version bump (the mark or unmark write). In the marking pass it reports
// whether the value changed, which decides whether the ascent continues; in
// the unmarking pass the write is unconditional (the counter must return to
// even parity) and the children are re-validated first.
func (m *Mindicator) repair(t *sim.Thread, i int, marking bool) bool {
	for {
		lv := mindVal(t.Load(m.node(2*i + 1)))
		rv := mindVal(t.Load(m.node(2*i + 2)))
		mn := min(lv, rv)
		cur := t.Load(m.node(i))
		changed := mindVal(cur) != mn
		if t.CAS(m.node(i), cur, mindBump(cur, mn, 1)) {
			return changed
		}
	}
}

// updateTx is the prefix transaction: one upward pass, plain stores, the
// version advanced by two per node (coalesced mark+unmark), no second pass.
func (m *Mindicator) updateTx(t *sim.Thread, slot int, val uint64) {
	leaf := m.leaves - 1 + slot
	w := t.Load(m.node(leaf))
	t.Store(m.node(leaf), mindBump(w, val, 2))
	for i := (leaf - 1) / 2; ; i = (i - 1) / 2 {
		lv := mindVal(t.Load(m.node(2*i + 1)))
		rv := mindVal(t.Load(m.node(2*i + 2)))
		mn := min(lv, rv)
		cur := t.Load(m.node(i))
		if mindVal(cur) == mn {
			return
		}
		t.Store(m.node(i), mindBump(cur, mn, 2))
		if i == 0 {
			return
		}
	}
}

// updateSeq is the sequential protocol run under the TLE lock (or inside an
// eliding transaction): plain stores, no versions, early stop.
func (m *Mindicator) updateSeq(t *sim.Thread, slot int, val uint64) {
	i := m.leaves - 1 + slot
	t.Store(m.node(i), val)
	for i != 0 {
		i = (i - 1) / 2
		lv := mindVal(t.Load(m.node(2*i + 1)))
		rv := mindVal(t.Load(m.node(2*i + 2)))
		mn := min(lv, rv)
		if mindVal(t.Load(m.node(i))) == mn {
			return
		}
		t.Store(m.node(i), mn)
	}
}
