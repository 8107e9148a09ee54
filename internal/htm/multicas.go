package htm

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// This file implements a lock-free multi-word CAS over Var cells — the
// internal/mcas algorithm (Harris-Fraser-Pratt style claims with helping)
// lifted from raw 64-bit words to typed transactional Vars, and made
// interoperable with the striped-orec STM. It is the publication primitive
// for the transactional composition layer (internal/txn): when the HTM fast
// path is unavailable, a composed operation's validated read-set and staged
// write-set are installed in one MultiCAS.
//
// Interoperation protocol with the STM (the part raw MCAS does not need):
//
//   - Claim phase is fully lock-free: each entry's cell is CASed from
//     {val: old} to {val: old, desc} in global Var-id order, helping any
//     foreign descriptor encountered. A claimed cell still carries the old
//     value, so readers never block on an undecided operation.
//   - The decision (undecided → succeeded) happens while holding the
//     stripes of every entry's Var, acquired in ascending stripe order —
//     the same order committing transactions lock their write stripes, so
//     the two can never deadlock (and committers abort rather than wait on
//     a busy stripe anyway). A successful decision bumps the domain commit
//     clock and stamps each write leg's Var with the new version before it
//     releases the stripes, which aborts exactly the transactions that read
//     a Var the MCAS writes. Validation-only legs (Old == New) are not
//     stamped and leave their stripe as found: their values do not change,
//     so overlapping readers have nothing to observe.
//   - A committing transaction or direct writer that finds an *undecided*
//     descriptor on a cell it writes kills it (undecided → failed): the
//     writer holds that cell's stripe, which the descriptor's decision must
//     also acquire, so the kill cannot race with a concurrent decision, and
//     the failed MCAS simply re-captures and retries. Every kill is paid
//     for by a successful commit, so the system as a whole remains
//     lock-free (the Theorem 2 analogue for composition).
//   - Readers (transactional or direct) that find a *succeeded* descriptor
//     finish its release phase and re-read; undecided and failed descriptors
//     are transparent (the cell's value is still the logical value).
//
// On real RTM none of this is needed — the fallback MCAS and hardware
// transactions conflict through the cache-coherence protocol. The stripe
// choreography is the software-emulation analogue, and it inherits the
// package's documented caveat that a preempted stripe holder can delay
// (but not block) the decision of concurrent MCASes.

// MultiCAS descriptor statuses.
const (
	mwUndecided uint32 = iota
	mwSucceeded
	mwFailed
)

// claim results.
type claimResult int

const (
	claimOK claimResult = iota
	claimForeign
	claimMismatch
)

// MultiDesc is the descriptor for an in-flight MultiCAS. Cells claimed by the
// operation point at it until the release phase returns them to plain values.
type MultiDesc struct {
	status  atomic.Uint32
	d       *Domain
	entries []Entry
}

// Entry is one leg of a MultiCAS: a typed Var, the value it must still hold,
// and the value to install. Entries are created with NewUpdate; Old == New
// makes the leg a pure validation (a DCSS read-guard generalized to N legs).
type Entry interface {
	varID() uint64
	writes() bool
	dom() *Domain
	claim(m *MultiDesc) (claimResult, *MultiDesc)
	stamp(wv uint64)
	release(m *MultiDesc, success bool)
	holds() bool
}

// Update is the concrete Entry for a Var[T]. The exported accessors exist for
// the composition layer's capture buffers (read-own-writes and staging).
type Update[T comparable] struct {
	v        *Var[T]
	old, new T
}

// NewUpdate stages a MultiCAS leg replacing old with new on v.
func NewUpdate[T comparable](v *Var[T], old, new T) *Update[T] {
	return &Update[T]{v: v, old: old, new: new}
}

// Old returns the leg's expected prior value.
func (u *Update[T]) Old() T { return u.old }

// Pending returns the value the leg will install (the staged write).
func (u *Update[T]) Pending() T { return u.new }

// SetNew replaces the staged value, for write-after-write in a capture
// buffer. It must not be called once the Update has been passed to MultiCAS.
func (u *Update[T]) SetNew(x T) { u.new = x }

// IsWrite reports whether the leg changes the value.
func (u *Update[T]) IsWrite() bool { return u.old != u.new }

func (u *Update[T]) varID() uint64 { return u.v.id }
func (u *Update[T]) writes() bool  { return u.old != u.new }
func (u *Update[T]) dom() *Domain  { return u.v.d }

// stamp records commit version wv as the leg's Var's last write; the winning
// decision calls it, for write legs only, while it holds the Var's stripe.
func (u *Update[T]) stamp(wv uint64) { u.v.ver.Store(wv) }

func (u *Update[T]) claim(m *MultiDesc) (claimResult, *MultiDesc) {
	for {
		c := u.v.p.Load()
		if c.desc == m {
			return claimOK, nil
		}
		if c.desc != nil {
			return claimForeign, c.desc
		}
		if c.val != u.old {
			return claimMismatch, nil
		}
		if u.v.p.CompareAndSwap(c, &cell[T]{val: u.old, desc: m}) {
			return claimOK, nil
		}
	}
}

func (u *Update[T]) release(m *MultiDesc, success bool) {
	c := u.v.p.Load()
	if c.desc != m {
		return
	}
	val := u.old
	if success {
		val = u.new
	}
	u.v.p.CompareAndSwap(c, &cell[T]{val: val})
}

// holds reports whether the Var currently contains the leg's old value,
// resolving any completed MultiCAS first. It is only meaningful inside a
// stable stripe window (see MultiValidate).
func (u *Update[T]) holds() bool {
	for {
		c := u.v.p.Load()
		if c.desc != nil && c.desc.status.Load() == mwSucceeded {
			c.desc.releaseAll()
			continue
		}
		return c.val == u.old
	}
}

// MultiCAS atomically installs every entry's new value provided every entry
// still holds its old value, reporting whether the update happened. All Vars
// must belong to the same Domain and be distinct; an empty set trivially
// succeeds. Any thread that encounters the descriptor helps complete it.
func MultiCAS(entries ...Entry) bool {
	return MultiCASParked(nil, entries...)
}

// MultiCASParked is MultiCAS with a preemption window: park (when non-nil)
// runs once after the claim phase, while the descriptor sits fully claimed
// but undecided. It models the protocol's documented weak spot — a fallback
// publisher descheduled between installing its claims and deciding — which
// is otherwise a matter of scheduler luck and on a single-core host
// effectively never happens. While parked, concurrent writers that collide
// with the descriptor either kill it (the two-path rule, failing this call)
// or help it to decision (a three-path helping tier, completing this call's
// work); decide() resolves both races correctly, so the window changes
// timing, never safety. The A10 adversary parks with runtime.Gosched.
func MultiCASParked(park func(), entries ...Entry) bool {
	if len(entries) == 0 {
		return true
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].varID() < entries[j].varID() })
	d := entries[0].dom()
	for i, e := range entries {
		if e.dom() != d {
			panic("htm: MultiCAS entries span domains")
		}
		if i > 0 && e.varID() == entries[i-1].varID() {
			panic("htm: duplicate Var in MultiCAS entry set")
		}
	}
	m := &MultiDesc{d: d, entries: entries}
	m.claimAll()
	if park != nil && m.status.Load() == mwUndecided {
		park()
	}
	perturb()
	m.decide()
	perturb()
	m.releaseAll()
	return m.status.Load() == mwSucceeded
}

// help drives the descriptor to completion; safe to call from any number of
// threads.
func (m *MultiDesc) help() {
	m.claimAll()
	m.decide()
	m.releaseAll()
}

// claimAll is the claim phase: claim each cell in Var-id order, helping
// foreign descriptors met along the way; a value mismatch decides failure.
func (m *MultiDesc) claimAll() {
claim:
	for _, e := range m.entries {
		for {
			if m.status.Load() != mwUndecided {
				break claim
			}
			res, foreign := e.claim(m)
			switch res {
			case claimOK:
			case claimForeign:
				foreign.help()
				continue
			case claimMismatch:
				m.status.CompareAndSwap(mwUndecided, mwFailed)
				break claim
			}
			break
		}
	}
}

// decStripe is one stripe involved in a MultiCAS decision: a stripe with at
// least one write leg is a write stripe and is released at the new commit
// version; a validation-only stripe is restored to its pre-lock word.
type decStripe struct {
	s     *stripe
	idx   uint32
	varID uint64 // the owner the stripe is locked under: a writing Var of it, if any
	write bool
	prev  uint64
}

// decide moves an undecided descriptor to succeeded while holding the
// stripes of every entry, acquired in ascending stripe order (deadlock-free
// against committing transactions, direct writers, and other decisions).
// Holding the stripes serializes the decision against writers that kill
// undecided descriptors they collide with; exactly one caller wins the
// status CAS under the locks, and only the winner bumps the commit clock,
// stamps the write legs' Vars and releases their stripes at the new version
// — which aborts precisely the transactions that read a Var it writes.
func (m *MultiDesc) decide() {
	if m.status.Load() != mwUndecided {
		return
	}
	d := m.d
	// Merge the entries onto their stripes and lock them ascending.
	stripes := decStripes(d.table(), m.entries)
	for i := range stripes {
		stripes[i].prev = stripes[i].s.acquire(stripes[i].varID)
	}
	// A loser of the status CAS — another helper already decided (and, if it
	// succeeded, already stamped and published: our pre-lock words are its),
	// or a writer killed the descriptor — puts every stripe back as found, as
	// the winner does with its validation-only stripes.
	perturb()
	var wv uint64
	won := m.status.CompareAndSwap(mwUndecided, mwSucceeded)
	if won {
		wv = d.clock.Add(1)
		perturb()
		for _, e := range m.entries {
			if e.writes() {
				e.stamp(wv)
			}
		}
	}
	perturb()
	for i := range stripes {
		if ds := &stripes[i]; won && ds.write {
			ds.s.word.Store(wv << 1)
		} else {
			ds.s.word.Store(ds.prev)
		}
	}
}

// decStripes returns one decision record per distinct stripe the entries
// hash to in table t, sorted ascending.
func decStripes(t *stripeTable, entries []Entry) []decStripe {
	var out []decStripe
merge:
	for _, e := range entries {
		idx := t.indexOf(e.varID())
		for i := range out {
			if out[i].idx == idx {
				if e.writes() && !out[i].write {
					out[i].write = true
					out[i].varID = e.varID()
				}
				continue merge
			}
		}
		out = append(out, decStripe{s: &t.stripes[idx], idx: idx, varID: e.varID(), write: e.writes()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// releaseAll returns every claimed cell to a plain value: the new value if
// the operation succeeded, the old value otherwise. Idempotent.
func (m *MultiDesc) releaseAll() {
	success := m.status.Load() == mwSucceeded
	for _, e := range m.entries {
		e.release(m, success)
	}
}

// MultiValidate reports whether every entry holds its old value at a single
// instant: the checks run inside one window in which every involved stripe
// stayed unlocked and unchanged, so no writer touched any of the entries'
// Vars while they ran — but, unlike the old whole-domain even-clock window,
// writers elsewhere in the domain no longer invalidate the window. It is
// the read-only commit of the composition layer's fallback path —
// validation without publication.
func MultiValidate(entries ...Entry) bool {
	if len(entries) == 0 {
		return true
	}
	d := entries[0].dom()
	for _, e := range entries {
		if e.dom() != d {
			panic("htm: MultiValidate entries span domains")
		}
	}
	t := d.table()
	seen := make([]uint64, t.words)
	var strps []*stripe
	for _, e := range entries {
		i := t.indexOf(e.varID())
		w, b := i>>6, uint64(1)<<(i&63)
		if seen[w]&b == 0 {
			seen[w] |= b
			strps = append(strps, &t.stripes[i])
		}
	}
	var snaps []uint64
retry:
	for {
		snaps = snaps[:0]
		for _, s := range strps {
			w := s.word.Load()
			if w&1 != 0 {
				runtime.Gosched()
				continue retry
			}
			snaps = append(snaps, w)
		}
		ok := true
		for _, e := range entries {
			if !e.holds() {
				ok = false
				break
			}
		}
		for i, s := range strps {
			if s.word.Load() != snaps[i] {
				continue retry
			}
		}
		return ok
	}
}
