package htm

import (
	"runtime"
	"slices"
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
//     a busy stripe anyway) — and with the lock bit of every write leg's
//     Var set: a succeeded descriptor is readable as the new value the
//     moment its status flips, so the bits come first. A successful
//     decision then bumps the domain commit clock and stamps each write
//     leg's Var with the new version, which unlocks it and aborts exactly
//     the transactions that read a Var the MCAS writes; a decision that
//     loses the status CAS clears the bits again. Validation-only legs
//     (Old == New) are neither locked nor stamped: their values do not
//     change, so overlapping readers have nothing to observe.
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
	head() *varHead
	claim(m *MultiDesc) (claimResult, *MultiDesc)
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

// head is the leg's Var's versioned lock: a decision locks it, and the
// winning one stamps it, for write legs only, while it holds the Var's
// stripe; MultiValidate looks at it.
func (u *Update[T]) head() *varHead { return &u.v.varHead }

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
// resolving any completed MultiCAS first. It is only meaningful between two
// equal looks at the Var's word (see MultiValidate).
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

// decide moves an undecided descriptor to succeeded while holding the
// stripes of every entry, acquired in ascending stripe order (deadlock-free
// against committing transactions, direct writers, and other decisions).
// Holding the stripes serializes the decision against writers that kill
// undecided descriptors they collide with; exactly one caller wins the
// status CAS under them. Every caller that gets that far has set the lock
// bits of the write legs' Vars first — the flip itself makes the new values
// readable, and the version is drawn after it; the winner then bumps the
// commit clock and stamps those Vars, which unlocks them and aborts
// precisely the transactions that read a Var it writes, and a loser — another
// helper already decided, and if it succeeded already stamped, or a writer
// killed the descriptor — takes its bits off again.
func (m *MultiDesc) decide() {
	if m.status.Load() != mwUndecided {
		return
	}
	d := m.d
	// Merge the entries onto their stripes and lock them ascending.
	t := d.table()
	recs := decStripes(t, m.entries)
	for _, r := range recs {
		t.stripes[r.idx].acquire(r.varID)
	}
	for _, e := range m.entries {
		if e.writes() {
			e.head().lockVer()
		}
	}
	perturb()
	won := m.status.CompareAndSwap(mwUndecided, mwSucceeded)
	var wv uint64
	if won {
		wv = d.clock.Add(1)
		perturb()
	}
	for _, e := range m.entries {
		if e.writes() {
			if won {
				e.head().ver.Store(wv)
			} else {
				e.head().unlockVer()
			}
		}
	}
	unlock(t, recs)
}

// decStripes returns one record per distinct stripe the entries hash to in
// table t, sorted ascending; a stripe is held under a writing Var of it, if
// it has one (the owner a commit that meets it classifies its abort by).
func decStripes(t *stripeTable, entries []Entry) []stripeRec {
	var out []stripeRec
merge:
	for _, e := range entries {
		idx := t.indexOf(e.varID())
		for i := range out {
			if out[i].idx == idx {
				if e.writes() {
					out[i].varID = e.varID()
				}
				continue merge
			}
		}
		out = append(out, stripeRec{idx: idx, varID: e.varID()})
	}
	slices.SortFunc(out, byIdx)
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
// instant: the checks run between two looks at every entry's Var's word that
// find it unlocked and unchanged, so no writer touched any of the entries'
// Vars while they ran — the per-Var window of a direct Load, over several
// Vars at once; writers elsewhere in the domain, aliased or not, do not
// disturb it. It is the read-only commit of the composition layer's fallback
// path — validation without publication.
func MultiValidate(entries ...Entry) bool {
	if len(entries) == 0 {
		return true
	}
	d := entries[0].dom()
	snaps := make([]uint64, len(entries))
retry:
	for {
		for i, e := range entries {
			if e.dom() != d {
				panic("htm: MultiValidate entries span domains")
			}
			w := e.head().ver.Load()
			if w&verLocked != 0 {
				runtime.Gosched()
				continue retry
			}
			snaps[i] = w
		}
		for _, e := range entries {
			if !e.holds() {
				// Whatever the words did since: at the moment of this look
				// the entry did not hold.
				return false
			}
		}
		for i, e := range entries {
			if e.head().ver.Load() != snaps[i] {
				continue retry
			}
		}
		return true
	}
}
