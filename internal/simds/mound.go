package simds

import (
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// This file hosts the Mound (§3.1, Figures 2(b) and 5(b)) on the simulated
// machine. The algorithm matches internal/mound: a static tree of sorted
// lists whose node words pack (address, descriptor flag, dirty bit,
// version); insert binary-searches a random root-to-leaf path and links with
// a DCSS, removeMin pops the root list and restores the invariant with DCAS
// swaps. The baseline implements DCAS/DCSS with per-operation descriptors
// (reused thread-locally, as the paper notes) through a five-CAS protocol
// with a publication fence; the PTO variant replaces each DCAS/DCSS with one
// transaction of plain loads and stores, retried four times (the paper's
// tuned value) before the descriptor protocol runs. KeepFences retains the
// original's fences inside the transaction, the ablation of Figure 5(b).

// Mound word packing: [63:25] list/descriptor address, [24] descriptor
// flag, [23] dirty, [22:0] version.
const (
	mwDescBit  = 1 << 24
	mwDirtyBit = 1 << 23
	mwVerMask  = 1<<23 - 1
)

func mwPack(addr sim.Addr, dirty bool, ver uint64) uint64 {
	w := uint64(addr)<<25 | ver&mwVerMask
	if dirty {
		w |= mwDirtyBit
	}
	return w
}

func mwAddr(w uint64) sim.Addr { return sim.Addr(w >> 25) }
func mwDesc(w uint64) bool     { return w&mwDescBit != 0 }
func mwDirty(w uint64) bool    { return w&mwDirtyBit != 0 }

func mwBump(w uint64, dirty bool, addr sim.Addr) uint64 {
	return mwPack(addr, dirty, (w&mwVerMask)+1)
}

func mwMarker(desc sim.Addr) uint64 { return uint64(desc)<<25 | mwDescBit }

// mound descriptor layout (one line): status, a1, o1, n1, a2, o2, n2.
const (
	mdStatus = iota
	mdA1
	mdO1
	mdN1
	mdA2
	mdO2
	mdN2
)

const (
	mdUndecided = 0
	mdSucceeded = 1
	mdFailed    = 2
)

// SimMound is the simulated mound priority queue.
type SimMound struct {
	pto        bool
	keepFences bool
	maxDepth   int
	size       int
	base       sim.Addr
	depth      sim.Addr // shared occupied-depth word
	site       *simspec.Site
}

// NewSimMound builds a mound with levels 0..maxDepth using setup thread t.
// pto selects the transactional DCAS; keepFences retains the original's
// fences inside transactions (Figure 5(b)).
func NewSimMound(t *sim.Thread, pto, keepFences bool, maxDepth int) *SimMound {
	m := &SimMound{pto: pto, keepFences: keepFences,
		maxDepth: maxDepth, size: 1 << (maxDepth + 1)}
	m.base = t.Alloc(m.size * sim.LineWords)
	m.depth = t.Alloc(1)
	t.Store(m.depth, 2)
	return m.WithPolicy(simspec.DefaultPolicy())
}

// WithPolicy installs the speculation policy for the DCAS site (4 attempts
// by default, the paper's tuning; Policy.Attempts overrides when positive).
// A mid-flight software DCAS raises an explicit abort that clears quickly,
// so the level retries on explicit. Set before use.
func (m *SimMound) WithPolicy(p speculate.Policy) *SimMound {
	m.site = simspec.New("simmound/dcas", p,
		speculate.Level{Name: "pto", Attempts: 4, RetryExplicit: true}).
		WithBackoffUnit(simspec.ShortBackoffCycles)
	return m
}

func (m *SimMound) node(id int) sim.Addr { return m.base + sim.Addr(id*sim.LineWords) }

// val reads the head value of a resolved (descriptor-free) word.
func (m *SimMound) val(t *sim.Thread, w uint64) uint64 {
	a := mwAddr(w)
	if a == 0 {
		return ^uint64(0)
	}
	return t.Load(a)
}

// load resolves descriptors before returning a node word.
func (m *SimMound) load(t *sim.Thread, id int) uint64 {
	for {
		w := t.Load(m.node(id))
		if !mwDesc(w) {
			return w
		}
		m.help(t, mwAddr(w))
	}
}

func (m *SimMound) cas(t *sim.Thread, id int, old, new uint64) bool {
	for {
		w := t.Load(m.node(id))
		if mwDesc(w) {
			m.help(t, mwAddr(w))
			continue
		}
		if w != old {
			return false
		}
		if t.CAS(m.node(id), old, new) {
			return true
		}
	}
}

// dcas performs the two-word compare-and-swap, transactionally first in the
// PTO variant.
func (m *SimMound) dcas(t *sim.Thread, id1 int, o1, n1 uint64, id2 int, o2, n2 uint64) bool {
	if m.pto {
		r := m.site.Begin(t)
		for r.Next(0) {
			var result bool
			st := r.Try(func() {
				w1 := t.Load(m.node(id1))
				w2 := t.Load(m.node(id2))
				if mwDesc(w1) || mwDesc(w2) {
					t.TxAbort(1) // a software DCAS is mid-flight: do not help
				}
				if w1 != o1 || w2 != o2 {
					result = false
					return
				}
				if m.keepFences {
					// Unelided: the original's five fenced steps (each CAS
					// of the software protocol carries full ordering) keep
					// their fences inside the transaction — the Figure 5(b)
					// ablation.
					t.Fence()
					t.Fence()
					t.Fence()
				}
				t.Store(m.node(id1), n1)
				if m.keepFences {
					t.Fence()
				}
				t.Store(m.node(id2), n2)
				if m.keepFences {
					t.Fence()
				}
				result = true
			})
			if st == sim.OK {
				return result
			}
		}
		r.Fallback()
	}
	return m.dcasSoft(t, id1, o1, n1, id2, o2, n2)
}

func (m *SimMound) dcss(t *sim.Thread, cmp int, expect uint64, tgt int, old, new uint64) bool {
	return m.dcas(t, cmp, expect, expect, tgt, old, new)
}

// dcasSoft is the descriptor protocol: up to five CAS instructions plus the
// descriptor publication fence.
func (m *SimMound) dcasSoft(t *sim.Thread, id1 int, o1, n1 uint64, id2 int, o2, n2 uint64) bool {
	if id2 < id1 {
		id1, id2 = id2, id1
		o1, o2 = o2, o1
		n1, n2 = n2, n1
	}
	d := t.AllocLocal(7)
	t.Store(d+mdStatus, mdUndecided)
	t.Store(d+mdA1, uint64(m.node(id1)))
	t.Store(d+mdO1, o1)
	t.Store(d+mdN1, n1)
	t.Store(d+mdA2, uint64(m.node(id2)))
	t.Store(d+mdO2, o2)
	t.Store(d+mdN2, n2)
	t.Fence() // publish the descriptor before installing it
	m.help(t, d)
	return t.Load(d+mdStatus) == mdSucceeded
}

// help drives a software DCAS descriptor to completion. Its claim is the
// paper's unconditional CAS(a, old, marker), and the version counter that
// every write of a node word bumps (mwBump) is what makes that safe: a
// helper that checked the status and then stalls cannot find old in the
// word again once the descriptor is decided and released, and so cannot
// attach a decided descriptor to it. A DCSS's compare leg does keep its
// value, but re-applying it writes the value the word already holds.
// simtxn's MultiCAS runs over unversioned words and claims conditionally.
func (m *SimMound) help(t *sim.Thread, d sim.Addr) {
	marker := mwMarker(d)
	for leg := 0; leg < 2; leg++ {
		a := sim.Addr(t.Load(d + mdA1 + sim.Addr(3*leg)))
		old := t.Load(d + mdO1 + sim.Addr(3*leg))
		for {
			if t.Load(d+mdStatus) != mdUndecided {
				leg = 2 // decided: stop claiming
				break
			}
			w := t.Load(a)
			if w == marker {
				break
			}
			if mwDesc(w) {
				m.help(t, mwAddr(w))
				continue
			}
			if w != old {
				t.CAS(d+mdStatus, mdUndecided, mdFailed)
				leg = 2
				break
			}
			if t.CAS(a, old, marker) {
				break
			}
		}
		if leg == 2 {
			break
		}
	}
	t.CAS(d+mdStatus, mdUndecided, mdSucceeded)
	final := t.Load(d+mdStatus) == mdSucceeded
	for leg := 0; leg < 2; leg++ {
		a := sim.Addr(t.Load(d + mdA1 + sim.Addr(3*leg)))
		w := t.Load(a)
		if w == marker {
			v := t.Load(d + mdO1 + sim.Addr(3*leg))
			if final {
				v = t.Load(d + mdN1 + sim.Addr(3*leg))
			}
			t.CAS(a, marker, v)
		}
	}
}

// Insert adds v to the queue.
func (m *SimMound) Insert(t *sim.Thread, v uint64) {
	probes := 0
	for {
		d := int(t.Load(m.depth))
		leaf := 1<<d + int(t.Rand()%(1<<d))
		lw := m.load(t, leaf)
		if m.val(t, lw) < v || mwDirty(lw) {
			probes++
			if probes >= 8 {
				probes = 0
				if d < m.maxDepth {
					t.CAS(m.depth, uint64(d), uint64(d+1))
					continue
				}
				found := false
				for id := 1 << d; id < m.size; id++ {
					if w := m.load(t, id); !mwDirty(w) && m.val(t, w) >= v {
						leaf, lw = id, w
						found = true
						break
					}
				}
				if !found {
					panic("simds: mound capacity exhausted")
				}
			} else {
				continue
			}
		}
		nID, nw := leaf, lw
		lo, hi := 0, d
		for lo < hi {
			mid := (lo + hi) / 2
			id := leaf >> (d - mid)
			w := m.load(t, id)
			if !mwDirty(w) && m.val(t, w) >= v {
				hi = mid
				nID, nw = id, w
			} else {
				lo = mid + 1
			}
		}
		if mwDirty(nw) || m.val(t, nw) < v {
			continue
		}
		ln := t.AllocLocal(2)
		t.Store(ln, v)
		t.Store(ln+1, uint64(mwAddr(nw)))
		nw2 := mwBump(nw, false, ln)
		if nID == 1 {
			if m.cas(t, 1, nw, nw2) {
				return
			}
			continue
		}
		pw := m.load(t, nID>>1)
		if mwDirty(pw) || m.val(t, pw) > v {
			continue
		}
		if m.dcss(t, nID>>1, pw, nID, nw, nw2) {
			return
		}
	}
}

// RemoveMin removes and returns the minimum, reporting false when empty.
func (m *SimMound) RemoveMin(t *sim.Thread) (uint64, bool) {
	for {
		w := m.load(t, 1)
		if mwDirty(w) {
			// Another removal is restoring the invariant. Pause briefly
			// before helping: an immediate thundering herd of helpers on
			// the root only lengthens the repair (helping avoidance, §2.4).
			t.Work(60 + t.Rand()%120)
			if w = m.load(t, 1); mwDirty(w) {
				m.moundify(t, 1)
				continue
			}
		}
		a := mwAddr(w)
		if a == 0 {
			return 0, false
		}
		v := t.Load(a)
		next := sim.Addr(t.Load(a + 1))
		if m.cas(t, 1, w, mwBump(w, true, next)) {
			m.moundify(t, 1)
			return v, true
		}
	}
}

func (m *SimMound) moundify(t *sim.Thread, id int) {
	for {
		w := m.load(t, id)
		if !mwDirty(w) {
			return
		}
		l, r := 2*id, 2*id+1
		if r >= m.size {
			m.cas(t, id, w, mwBump(w, false, mwAddr(w)))
			continue
		}
		wl := m.load(t, l)
		if mwDirty(wl) {
			m.moundify(t, l)
			continue
		}
		wr := m.load(t, r)
		if mwDirty(wr) {
			m.moundify(t, r)
			continue
		}
		c, wc := l, wl
		if m.val(t, wr) < m.val(t, wl) {
			c, wc = r, wr
		}
		if m.val(t, wc) >= m.val(t, w) {
			m.cas(t, id, w, mwBump(w, false, mwAddr(w)))
			continue
		}
		if m.dcas(t, id, w, mwBump(w, false, mwAddr(wc)), c, wc, mwBump(wc, true, mwAddr(w))) {
			id = c
		}
	}
}

// Drain pops everything (setup/verification helper; call outside Run or on
// one thread).
func (m *SimMound) Drain(t *sim.Thread) []uint64 {
	var out []uint64
	for {
		v, ok := m.RemoveMin(t)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
