package simds

import (
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// This file hosts Harris's lock-free sorted linked list on the simulated
// machine, as an extension experiment (E1): the paper's §5 argues PTO
// applies to any marking-based design and that transactions need not
// maintain hazard pointers. The baseline here is the classic
// hazard-pointer-protected list (Michael 2004): the traversal publishes
// each node into a hazard slot with a sequentially consistent store and
// re-validates the link before moving on — one publication fence per hop —
// and removals retire nodes through periodic slot scans. The PTO variant
// runs whole operations as prefix transactions: the traversal is plain
// loads (strong atomicity protects the footprint, so every hazard
// publication, fence, and re-validation disappears), removal's mark and
// snip coalesce into one atomic step, and the fallback is the original
// protocol.

// SimList is the simulated sorted-list set.
type SimList struct {
	pto      bool
	head     sim.Addr
	tail     sim.Addr
	hpSlots  []sim.Addr // two hazard slots (pred, curr) per thread, one line each
	retirers []listRetirer
	conSite  *simspec.Site
	insSite  *simspec.Site
	rmSite   *simspec.Site
}

type listRetirer struct {
	batch []retiredBlock
}

// listNode layout: +0 key, +1 next (mark in bit 0).
const listNodeWords = 2

const listTailKeySim = ^uint64(0)

// NewSimList builds an empty list using setup thread t.
func NewSimList(t *sim.Thread, pto bool, threads int) *SimList {
	l := &SimList{pto: pto}
	for i := 0; i < threads*2; i++ {
		l.hpSlots = append(l.hpSlots, t.Alloc(1))
	}
	l.retirers = make([]listRetirer, threads)
	l.tail = t.Alloc(listNodeWords)
	t.Store(l.tail, listTailKeySim)
	l.head = t.Alloc(listNodeWords)
	t.Store(l.head, 0)
	t.Store(l.head+1, uint64(l.tail))
	return l.WithPolicy(simspec.DefaultPolicy())
}

// WithPolicy installs the speculation policy for the list's three sites
// (3 attempts per level by default, the paper-era tuning). Set before use.
func (l *SimList) WithPolicy(p speculate.Policy) *SimList {
	lv := speculate.Level{Name: "pto", Attempts: 3}
	l.conSite = simspec.New("simlist/contains", p, lv)
	l.insSite = simspec.New("simlist/insert", p, lv)
	l.rmSite = simspec.New("simlist/remove", p, lv)
	return l
}

// protect publishes addr in the thread's hazard slot i: a store and its
// publication fence (the cost PTO elides).
func (l *SimList) protect(t *sim.Thread, i int, addr sim.Addr) {
	t.Store(l.hpSlots[t.ID()*2+i], uint64(addr))
	t.Fence()
}

func (l *SimList) clearHazards(t *sim.Thread) {
	t.Store(l.hpSlots[t.ID()*2], 0)
	t.Store(l.hpSlots[t.ID()*2+1], 0)
}

// retire schedules a node for release; every retireBatch retirements the
// thread scans all hazard slots (the reclamation scan) and frees the batch.
func (l *SimList) retire(t *sim.Thread, addr sim.Addr) {
	r := &l.retirers[t.ID()]
	r.batch = append(r.batch, retiredBlock{addr, listNodeWords})
	if len(r.batch) < retireBatch {
		return
	}
	for _, s := range l.hpSlots {
		t.Load(s)
	}
	for _, b := range r.batch {
		t.Free(b.addr, b.words)
	}
	r.batch = r.batch[:0]
}

// search returns the unmarked window (pred, curr) with pred.key < key ≤
// curr.key, hazard-protecting the hand-over-hand traversal and snipping
// marked nodes. predNext is the observed pred->curr word.
func (l *SimList) search(t *sim.Thread, key uint64) (pred, curr sim.Addr, predNext uint64) {
retry:
	for {
		pred = l.head
		l.protect(t, 0, pred)
		pn := t.Load(pred + 1)
		if pn&1 != 0 {
			continue retry
		}
		curr = sim.Addr(pn &^ 1)
		for {
			// Publish curr, then re-validate the link that led to it.
			l.protect(t, 1, curr)
			if t.Load(pred+1) != pn {
				continue retry
			}
			cn := t.Load(curr + 1)
			for cn&1 != 0 {
				if !t.CAS(pred+1, pn, cn&^1) {
					continue retry
				}
				l.retire(t, curr)
				pn = cn &^ 1
				curr = sim.Addr(cn &^ 1)
				l.protect(t, 1, curr)
				if t.Load(pred+1) != pn {
					continue retry
				}
				cn = t.Load(curr + 1)
			}
			if t.Load(curr) < key {
				pred = curr
				l.protect(t, 0, pred)
				pn = cn
				curr = sim.Addr(cn &^ 1)
			} else {
				return pred, curr, pn
			}
		}
	}
}

// searchTx is the transactional traversal: plain loads, no hazards, no
// re-validation (strong atomicity).
func (l *SimList) searchTx(t *sim.Thread, key uint64) (pred, curr sim.Addr, predNext uint64) {
	pred = l.head
	pn := t.Load(pred + 1)
	curr = sim.Addr(pn &^ 1)
	for t.Load(curr) < key {
		pred = curr
		pn = t.Load(curr + 1)
		curr = sim.Addr(pn &^ 1)
	}
	return pred, curr, pn
}

// Contains reports membership.
func (l *SimList) Contains(t *sim.Thread, key uint64) bool {
	if l.pto {
		r := l.conSite.Begin(t)
		for r.Next(0) {
			var found bool
			st := r.Try(func() {
				_, curr, _ := l.searchTx(t, key)
				found = t.Load(curr) == key && t.Load(curr+1)&1 == 0
			})
			if st == sim.OK {
				return found
			}
		}
		r.Fallback()
	}
	_, curr, _ := l.search(t, key)
	found := t.Load(curr) == key && t.Load(curr+1)&1 == 0
	l.clearHazards(t)
	return found
}

// Insert adds key, reporting false if present.
func (l *SimList) Insert(t *sim.Thread, key uint64) bool {
	if l.pto {
		r := l.insSite.Begin(t)
		for r.Next(0) {
			var result bool
			st := r.Try(func() {
				pred, curr, _ := l.searchTx(t, key)
				if t.Load(curr) == key {
					result = false
					return
				}
				n := t.Alloc(listNodeWords)
				t.Store(n, key)
				t.Store(n+1, uint64(curr))
				t.Store(pred+1, uint64(n))
				result = true
			})
			if st == sim.OK {
				return result
			}
		}
		r.Fallback()
	}
	for {
		pred, curr, pn := l.search(t, key)
		if t.Load(curr) == key {
			l.clearHazards(t)
			return false
		}
		n := t.Alloc(listNodeWords)
		t.Store(n, key)
		t.Store(n+1, uint64(curr))
		t.Fence() // publish the node before linking (SC store in the original)
		if t.CAS(pred+1, pn, uint64(n)) {
			l.clearHazards(t)
			return true
		}
		t.Free(n, listNodeWords)
	}
}

// Remove deletes key, reporting false if absent. The transactional removal
// marks and unlinks in one step; the fallback is the original two-phase
// protocol.
func (l *SimList) Remove(t *sim.Thread, key uint64) bool {
	if l.pto {
		r := l.rmSite.Begin(t)
		for r.Next(0) {
			var result bool
			var victim sim.Addr
			st := r.Try(func() {
				pred, curr, _ := l.searchTx(t, key)
				if t.Load(curr) != key {
					result = false
					return
				}
				cn := t.Load(curr + 1)
				if cn&1 != 0 {
					result = false
					return
				}
				t.Store(curr+1, cn|1)
				t.Store(pred+1, cn&^1)
				victim = curr
				result = true
			})
			if st == sim.OK {
				if result {
					l.retire(t, victim)
				}
				return result
			}
		}
		r.Fallback()
	}
	for {
		pred, curr, pn := l.search(t, key)
		if t.Load(curr) != key {
			l.clearHazards(t)
			return false
		}
		cn := t.Load(curr + 1)
		if cn&1 != 0 {
			l.clearHazards(t)
			return false
		}
		if !t.CAS(curr+1, cn, cn|1) {
			continue
		}
		if t.CAS(pred+1, pn, cn&^1) {
			l.retire(t, curr)
		}
		l.clearHazards(t)
		return true
	}
}

// Keys returns the unmarked keys in order (setup/verification helper).
func (l *SimList) Keys(t *sim.Thread) []uint64 {
	var out []uint64
	curr := sim.Addr(t.Load(l.head+1) &^ 1)
	for {
		k := t.Load(curr)
		if k == listTailKeySim {
			return out
		}
		n := t.Load(curr + 1)
		if n&1 == 0 {
			out = append(out, k)
		}
		curr = sim.Addr(n &^ 1)
	}
}
