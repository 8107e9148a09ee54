package simds

import (
	"repro/internal/mound"
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// This file hosts the Mound (§3.1, Figures 2(b) and 5(b)) on the simulated
// machine. The algorithm is internal/mound's own — insert, removeMin and
// moundify run from mound/algo.go over the modeled words of the mound.Mem
// below, in mound's word format, a word's ref being its list head's
// address. What is modeled here is the DCAS/DCSS: the baseline's
// per-operation descriptors (thread-local, as the paper notes) and
// five-CAS protocol with a publication fence; the PTO variant replaces each
// DCAS/DCSS with one transaction of plain loads and stores, retried four
// times (the paper's tuned value) before the descriptor protocol runs.
// KeepFences retains the original's fences inside the transaction, the
// ablation of Figure 5(b).

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
	base       sim.Addr
	depth      sim.Addr // shared occupied-depth word
	site       *simspec.Site
	// mems holds each hardware thread's mound.Mem, written only by its
	// thread: a fresh one per operation would escape to the host heap.
	mems [sim.MaxThreads]moundMem
}

// NewSimMound builds a mound with levels 0..maxDepth using setup thread t.
// pto selects the transactional DCAS; keepFences retains the original's
// fences inside transactions (Figure 5(b)).
func NewSimMound(t *sim.Thread, pto, keepFences bool, maxDepth int) *SimMound {
	m := &SimMound{pto: pto, keepFences: keepFences, maxDepth: maxDepth}
	m.base = t.Alloc((2 << maxDepth) * sim.LineWords)
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

// mem is t's mound.Mem on m.
func (m *SimMound) mem(t *sim.Thread) *moundMem {
	mm := &m.mems[t.ID()]
	mm.m, mm.t = m, t
	return mm
}

// Insert adds v to the queue.
func (m *SimMound) Insert(t *sim.Thread, v uint64) { mound.Insert(m.mem(t), m.maxDepth, v) }

// RemoveMin removes and returns the minimum, reporting false when empty.
func (m *SimMound) RemoveMin(t *sim.Thread) (uint64, bool) {
	return mound.RemoveMin(m.mem(t), m.maxDepth)
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

// moundMem is the mound.Mem of thread t on m: node id's word is the first
// word of its own line, a list node is two words (value, next ref), and a
// marker is mound.MarkerBit|descriptor address.
type moundMem struct {
	m *SimMound
	t *sim.Thread
}

func (mm *moundMem) node(id int) sim.Addr { return mm.m.base + sim.Addr(id*sim.LineWords) }

// Load resolves descriptors before returning a node word.
func (mm *moundMem) Load(id int) uint64 {
	for {
		w := mm.t.Load(mm.node(id))
		if w&mound.MarkerBit == 0 {
			return w
		}
		mm.help(sim.Addr(w &^ mound.MarkerBit))
	}
}

func (mm *moundMem) LoadVal(id int) (uint64, uint64) {
	w := mm.Load(id)
	return w, mm.Val(w)
}

func (mm *moundMem) LoadClean(id int) (uint64, uint64) {
	w := mm.Load(id)
	if mound.Dirty(w) {
		return w, 0
	}
	return w, mm.Val(w)
}

func (mm *moundMem) Val(w uint64) uint64 {
	a := mound.Ref(w)
	if a == 0 {
		return mound.Empty
	}
	return mm.t.Load(sim.Addr(a))
}

func (mm *moundMem) Vals(a, b uint64) (uint64, uint64) { return mm.Val(a), mm.Val(b) }

func (mm *moundMem) Pop(w uint64) (uint64, uint32) {
	a := sim.Addr(mound.Ref(w))
	return mm.t.Load(a), uint32(mm.t.Load(a + 1))
}

// Alloc takes a list node from the thread's arena. Addresses are dense from
// 0, and one past 2^32 words would need 32 GiB of host memory, so the
// address fits a word's ref.
func (mm *moundMem) Alloc(v uint64, next uint32) uint32 {
	ln := mm.t.AllocLocal(2)
	mm.t.Store(ln, v)
	mm.t.Store(ln+1, uint64(next))
	return uint32(ln)
}

func (mm *moundMem) Leaf() (int, int) {
	d := int(mm.t.Load(mm.m.depth))
	return d, 1<<d + int(mm.t.Rand()%(1<<d))
}

func (mm *moundMem) Grow(d int) { mm.t.CAS(mm.m.depth, uint64(d), uint64(d+1)) }

func (mm *moundMem) Pause() { mm.t.Work(60 + mm.t.Rand()%120) }

func (mm *moundMem) CAS(id int, old, new uint64) bool {
	for mm.Load(id) == old {
		if mm.t.CAS(mm.node(id), old, new) {
			return true
		}
	}
	return false
}

func (mm *moundMem) DCSS(cmp int, expect uint64, tgt int, old, new uint64) bool {
	return mm.DCAS(cmp, expect, expect, tgt, old, new)
}

// DCAS performs the two-word compare-and-swap, transactionally first in the
// PTO variant.
func (mm *moundMem) DCAS(id1 int, o1, n1 uint64, id2 int, o2, n2 uint64) bool {
	m, t := mm.m, mm.t
	if m.pto {
		r := m.site.Begin(t)
		for r.Next(0) {
			var result bool
			st := r.Try(func() {
				w1 := t.Load(mm.node(id1))
				w2 := t.Load(mm.node(id2))
				if (w1|w2)&mound.MarkerBit != 0 {
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
				t.Store(mm.node(id1), n1)
				if m.keepFences {
					t.Fence()
				}
				t.Store(mm.node(id2), n2)
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
	return mm.dcasSoft(id1, o1, n1, id2, o2, n2)
}

// dcasSoft is the descriptor protocol: up to five CAS instructions plus the
// descriptor publication fence.
func (mm *moundMem) dcasSoft(id1 int, o1, n1 uint64, id2 int, o2, n2 uint64) bool {
	t := mm.t
	if id2 < id1 {
		id1, id2 = id2, id1
		o1, o2 = o2, o1
		n1, n2 = n2, n1
	}
	d := t.AllocLocal(7)
	t.Store(d+mdStatus, mdUndecided)
	t.Store(d+mdA1, uint64(mm.node(id1)))
	t.Store(d+mdO1, o1)
	t.Store(d+mdN1, n1)
	t.Store(d+mdA2, uint64(mm.node(id2)))
	t.Store(d+mdO2, o2)
	t.Store(d+mdN2, n2)
	t.Fence() // publish the descriptor before installing it
	mm.help(d)
	return t.Load(d+mdStatus) == mdSucceeded
}

// help drives a software DCAS descriptor to completion. Its claim is the
// paper's unconditional CAS(a, old, marker), and the version counter that
// every write of a node word bumps (mound.Bump) is what makes that safe: a
// helper that checked the status and then stalls cannot find old in the
// word again once the descriptor is decided and released, and so cannot
// attach a decided descriptor to it. A DCSS's compare leg does keep its
// value, but re-applying it writes the value the word already holds.
// simtxn's MultiCAS runs over unversioned words and claims conditionally.
func (mm *moundMem) help(d sim.Addr) {
	t := mm.t
	marker := mound.MarkerBit | uint64(d)
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
			if w&mound.MarkerBit != 0 {
				mm.help(sim.Addr(w &^ mound.MarkerBit))
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
