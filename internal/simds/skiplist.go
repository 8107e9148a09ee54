package simds

import (
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// This file hosts the lock-free skiplist set and the Lotan–Shavit priority
// queue (§3.1, §4.3, Figures 2(b) and 3) on the simulated machine. Next
// pointers carry their deletion mark in bit 0 (addresses are line-aligned),
// exactly as the paper's C code does. Node allocation goes through the
// shared allocator, and operations are epoch-protected (Fraser's scheme).
//
// The PTO variants follow §3.1's finding that only local application is
// profitable: searches and lookups are untouched (so the PTO skiplist pays
// the full traversal and epoch costs — the reason Figure 3 shows it gaining
// nothing), while a prefix transaction performs insert's multi-level linking
// or remove's multi-level marking, falling back to the original CAS
// sequence.

// SkipMaxLevel bounds tower height for the simulated skiplist.
const SkipMaxLevel = 14

const skipTailKey = ^uint64(0)

// Node layout: +0 key, +1 top level, +2+i next pointer for level i
// (address<<0 with mark in bit 0; addresses are line-aligned so bits 0-2
// are free).

// SimSkip is the simulated skiplist set.
type SimSkip struct {
	pto      bool
	head     sim.Addr
	epoch    *Epoch
	retirers []*Retirer
	insSite  *simspec.Site
	rmSite   *simspec.Site
	popSite  *simspec.Site // used by SimSkipQ.Pop
}

// NewSimSkip builds an empty skiplist using setup thread t for a machine
// with the given thread count.
func NewSimSkip(t *sim.Thread, pto bool, threads int) *SimSkip {
	s := &SimSkip{pto: pto, epoch: NewEpoch(t, threads)}
	for i := 0; i < threads; i++ {
		s.retirers = append(s.retirers, NewRetirer(s.epoch))
	}
	tail := t.Alloc(2 + SkipMaxLevel)
	t.Store(tail, skipTailKey)
	t.Store(tail+1, SkipMaxLevel-1)
	s.head = t.Alloc(2 + SkipMaxLevel)
	t.Store(s.head, 0)
	t.Store(s.head+1, SkipMaxLevel-1)
	for l := 0; l < SkipMaxLevel; l++ {
		t.Store(s.head+2+sim.Addr(l), uint64(tail))
	}
	return s.WithPolicy(simspec.DefaultPolicy())
}

// WithPolicy installs the speculation policy for the skiplist's sites. The
// insert/remove budget of 3 attempts is the paper-era tuning, with explicit
// aborts (a moved validation window) retried — the window is re-searched
// before each attempt, so retrying is useful. The priority-queue pop keeps
// its single attempt, with the abort itself serving as backoff (§2.4).
// Set before use.
func (s *SimSkip) WithPolicy(p speculate.Policy) *SimSkip {
	lv := speculate.Level{Name: "pto", Attempts: 3, RetryExplicit: true}
	s.insSite = simspec.New("simskip/insert", p, lv)
	s.rmSite = simspec.New("simskip/remove", p, lv)
	s.popSite = simspec.New("simskipq/pop", p, speculate.Level{Name: "pto", Attempts: 1})
	return s
}

func skipNext(n sim.Addr, lvl int) sim.Addr { return n + 2 + sim.Addr(lvl) }

func skipAddr(w uint64) sim.Addr { return sim.Addr(w &^ 1) }

func (s *SimSkip) key(t *sim.Thread, n sim.Addr) uint64 { return t.Load(n) }

func (s *SimSkip) randomLevel(t *sim.Thread) int {
	x := t.Rand()
	l := 0
	for x&1 == 1 && l < SkipMaxLevel-1 {
		l++
		x >>= 1
	}
	return l
}

// find locates key's predecessors and successors per level, snipping marked
// nodes, and reports presence at level 0. predWord receives the observed
// pred->succ word for CAS validation.
func (s *SimSkip) find(t *sim.Thread, key uint64, preds, succs *[SkipMaxLevel]sim.Addr, predWord *[SkipMaxLevel]uint64) bool {
retry:
	for {
		pred := s.head
		for lvl := SkipMaxLevel - 1; lvl >= 0; lvl-- {
			pw := t.Load(skipNext(pred, lvl))
			if pw&1 != 0 {
				continue retry
			}
			curr := skipAddr(pw)
			for {
				cw := t.Load(skipNext(curr, lvl))
				for cw&1 != 0 {
					if !t.CAS(skipNext(pred, lvl), pw, cw&^1) {
						continue retry
					}
					pw = cw &^ 1
					curr = skipAddr(cw)
					cw = t.Load(skipNext(curr, lvl))
				}
				if s.key(t, curr) < key {
					pred = curr
					pw = cw
					curr = skipAddr(cw)
				} else {
					break
				}
			}
			preds[lvl] = pred
			succs[lvl] = curr
			predWord[lvl] = pw
		}
		return s.key(t, succs[0]) == key
	}
}

// Contains reports membership; identical in both variants (lookups are not
// PTO-transformed for skiplists).
func (s *SimSkip) Contains(t *sim.Thread, key uint64) bool {
	s.epoch.Enter(t)
	defer s.epoch.Exit(t)
	pred := s.head
	var curr sim.Addr
	for lvl := SkipMaxLevel - 1; lvl >= 0; lvl-- {
		curr = skipAddr(t.Load(skipNext(pred, lvl)))
		for {
			cw := t.Load(skipNext(curr, lvl))
			if cw&1 != 0 {
				curr = skipAddr(cw)
				continue
			}
			if s.key(t, curr) < key {
				pred = curr
				curr = skipAddr(cw)
			} else {
				break
			}
		}
	}
	if s.key(t, curr) != key {
		return false
	}
	return t.Load(skipNext(curr, 0))&1 == 0
}

// newNode allocates and initializes a node (shared allocator).
func (s *SimSkip) newNode(t *sim.Thread, key uint64, top int, succs *[SkipMaxLevel]sim.Addr) sim.Addr {
	n := t.Alloc(2 + top + 1)
	t.Store(n, key)
	t.Store(n+1, uint64(top))
	for l := 0; l <= top; l++ {
		t.Store(skipNext(n, l), uint64(succs[l]))
	}
	return n
}

// Insert adds key, reporting false if present.
func (s *SimSkip) Insert(t *sim.Thread, key uint64) bool {
	s.epoch.Enter(t)
	defer s.epoch.Exit(t)
	var preds, succs [SkipMaxLevel]sim.Addr
	var pws [SkipMaxLevel]uint64
	top := s.randomLevel(t)
	if s.pto {
		r := s.insSite.Begin(t)
		for r.Next(0) {
			if s.find(t, key, &preds, &succs, &pws) {
				return false
			}
			n := s.newNode(t, key, top, &succs)
			st := r.Try(func() {
				for l := 0; l <= top; l++ {
					if t.Load(skipNext(preds[l], l)) != pws[l] {
						t.TxAbort(1)
					}
				}
				for l := 0; l <= top; l++ {
					t.Store(skipNext(preds[l], l), uint64(n))
				}
			})
			if st == sim.OK {
				return true
			}
			t.Free(n, 2+top+1)
		}
		r.Fallback()
	}
	// Original per-level CAS sequence.
	for {
		if s.find(t, key, &preds, &succs, &pws) {
			return false
		}
		n := s.newNode(t, key, top, &succs)
		if !t.CAS(skipNext(preds[0], 0), pws[0], uint64(n)) {
			t.Free(n, 2+top+1)
			continue
		}
		for l := 1; l <= top; l++ {
			for {
				if t.CAS(skipNext(preds[l], l), pws[l], uint64(n)) {
					break
				}
				if t.Load(skipNext(n, l))&1 != 0 || t.Load(skipNext(n, 0))&1 != 0 {
					return true
				}
				s.find(t, key, &preds, &succs, &pws)
				nw := t.Load(skipNext(n, l))
				if nw&1 != 0 {
					return true
				}
				if skipAddr(nw) != succs[l] {
					if !t.CAS(skipNext(n, l), nw, uint64(succs[l])) {
						return true
					}
				}
			}
		}
		return true
	}
}

// Remove deletes key, reporting false if absent.
func (s *SimSkip) Remove(t *sim.Thread, key uint64) bool {
	s.epoch.Enter(t)
	defer s.epoch.Exit(t)
	var preds, succs [SkipMaxLevel]sim.Addr
	var pws [SkipMaxLevel]uint64
	if !s.find(t, key, &preds, &succs, &pws) {
		return false
	}
	victim := succs[0]
	top := int(t.Load(victim + 1))
	if s.pto {
		r := s.rmSite.Begin(t)
		for r.Next(0) {
			marked := false
			lost := false
			st := r.Try(func() {
				w0 := t.Load(skipNext(victim, 0))
				if w0&1 != 0 {
					lost = true
					return
				}
				for l := top; l >= 0; l-- {
					w := t.Load(skipNext(victim, l))
					if w&1 == 0 {
						t.Store(skipNext(victim, l), w|1)
					}
				}
				marked = true
			})
			if st == sim.OK {
				if lost {
					return false
				}
				if marked {
					s.find(t, key, &preds, &succs, &pws) // physical unlink
					s.retirers[t.ID()].Retire(t, victim, 2+top+1)
					return true
				}
			}
		}
		r.Fallback()
	}
	// Original top-down marking.
	for l := top; l >= 1; l-- {
		w := t.Load(skipNext(victim, l))
		for w&1 == 0 {
			t.CAS(skipNext(victim, l), w, w|1)
			w = t.Load(skipNext(victim, l))
		}
	}
	for {
		w := t.Load(skipNext(victim, 0))
		if w&1 != 0 {
			return false
		}
		if t.CAS(skipNext(victim, 0), w, w|1) {
			s.find(t, key, &preds, &succs, &pws)
			s.retirers[t.ID()].Retire(t, victim, 2+top+1)
			return true
		}
	}
}

// Keys returns the unmarked keys in order (setup/verification helper).
func (s *SimSkip) Keys(t *sim.Thread) []uint64 {
	var out []uint64
	curr := skipAddr(t.Load(skipNext(s.head, 0)))
	for {
		k := s.key(t, curr)
		if k == skipTailKey {
			return out
		}
		w := t.Load(skipNext(curr, 0))
		if w&1 == 0 {
			out = append(out, k)
		}
		curr = skipAddr(w)
	}
}

// SimSkipQ is the Lotan–Shavit priority queue over the simulated skiplist,
// linearizable pops (restart on a marked head rather than traversing
// through it).
type SimSkipQ struct {
	set *SimSkip
	seq []uint64 // per-thread duplicate-breaking sequence numbers
}

// SkipQSeqBits is the width of the duplicate-breaking field.
const SkipQSeqBits = 20

// NewSimSkipQ builds an empty priority queue.
func NewSimSkipQ(t *sim.Thread, pto bool, threads int) *SimSkipQ {
	return &SimSkipQ{set: NewSimSkip(t, pto, threads), seq: make([]uint64, 16)}
}

// WithPolicy installs the speculation policy for the underlying skiplist's
// sites, including the pop site. Call before the machine runs.
func (q *SimSkipQ) WithPolicy(p speculate.Policy) *SimSkipQ {
	q.set.WithPolicy(p)
	return q
}

// Push inserts prio (duplicates allowed).
func (q *SimSkipQ) Push(t *sim.Thread, prio uint64) {
	for {
		q.seq[t.ID()]++
		key := prio<<SkipQSeqBits | (uint64(t.ID())<<14|q.seq[t.ID()])&(1<<SkipQSeqBits-1)
		if q.set.Insert(t, key) {
			return
		}
	}
}

// Pop removes and returns the minimum priority.
func (q *SimSkipQ) Pop(t *sim.Thread) (uint64, bool) {
	s := q.set
	s.epoch.Enter(t)
	defer s.epoch.Exit(t)
	if s.pto {
		// Pops contend on the minimum by design; the site's level budget is
		// one attempt, with the abort itself serving as backoff (§2.4),
		// then the original pop.
		r := s.popSite.Begin(t)
		for r.Next(0) {
			var key uint64
			var victim sim.Addr
			vtop := 0
			empty, claimed := false, false
			st := r.Try(func() {
				first := t.Load(skipNext(s.head, 0))
				curr := skipAddr(first)
				key = s.key(t, curr)
				if key == skipTailKey {
					empty = true
					return
				}
				if t.Load(skipNext(curr, 0))&1 != 0 {
					t.TxAbort(1) // a concurrent pop is mid-claim
				}
				// Claim by marking every level of the minimum in one
				// transaction (the §3.1 remove transformation); physical
				// unlinking stays outside, as in the original.
				top := int(t.Load(curr + 1))
				for l := top; l >= 0; l-- {
					cw := t.Load(skipNext(curr, l))
					t.Store(skipNext(curr, l), cw|1)
				}
				victim, vtop = curr, top
				claimed = true
			})
			if st == sim.OK {
				if empty {
					return 0, false
				}
				if claimed {
					var preds, succs [SkipMaxLevel]sim.Addr
					var pws [SkipMaxLevel]uint64
					s.find(t, key, &preds, &succs, &pws)
					s.retirers[t.ID()].Retire(t, victim, 2+vtop+1)
					return key >> SkipQSeqBits, true
				}
			}
		}
		r.Fallback()
	}
	// Original Lotan–Shavit pop.
restart:
	for {
		curr := skipAddr(t.Load(skipNext(s.head, 0)))
		for {
			k := s.key(t, curr)
			if k == skipTailKey {
				return 0, false
			}
			w := t.Load(skipNext(curr, 0))
			if w&1 != 0 {
				continue restart // do not traverse through a marked node
			}
			if t.CAS(skipNext(curr, 0), w, w|1) {
				top := int(t.Load(curr + 1))
				for l := top; l >= 1; l-- {
					hw := t.Load(skipNext(curr, l))
					for hw&1 == 0 {
						t.CAS(skipNext(curr, l), hw, hw|1)
						hw = t.Load(skipNext(curr, l))
					}
				}
				var preds, succs [SkipMaxLevel]sim.Addr
				var pws [SkipMaxLevel]uint64
				s.find(t, k, &preds, &succs, &pws)
				s.retirers[t.ID()].Retire(t, curr, 2+top+1)
				return k >> SkipQSeqBits, true
			}
			continue restart
		}
	}
}
