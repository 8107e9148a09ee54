package htm

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"
)

// This file implements a lock-free multi-word CAS over Vars — the
// internal/mcas algorithm (Harris-Fraser-Pratt style claims with helping)
// lifted from raw 64-bit words to typed transactional Vars, and made
// interoperable with the STM's per-Var versioned locks. It is the publication
// primitive for the transactional composition layer (internal/txn): when the
// HTM fast path is unavailable, a composed operation's validated read-set and
// staged write-set are installed in one MultiCAS.
//
// A Var's value word never holds anything but its value, so the fast path
// carries none of this: a MultiCAS claims a Var through the slot beside the
// value (varHead.claim), which readers do not look at. The protocol, and how
// it meets the STM's writers:
//
//   - Claim phase, fully lock-free, in global Var-id order: put the
//     descriptor in the Var's claim slot (a CAS from nil, or over a decided
//     descriptor's stale claim; an undecided foreign one is helped first),
//     THEN look at the value, inside a window of the Var's lock word like any
//     direct read. Claim and look are two steps, so a claim vouches for
//     nothing: every helper makes the look for itself on every leg, whoever
//     placed the claim, and fails the descriptor if the value is not the
//     leg's old value. A helper that has looked at every leg knows each held
//     its old value at some moment after it was claimed.
//   - A committing transaction or direct writer kills (undecided → failed)
//     the descriptor it finds in the slot of a Var it writes, after it has
//     taken the Var's lock bit and before it stamps the Var. Lock bit then
//     slot on one side, slot then lock word on the other: a helper whose
//     look found the word unlocked had its claim seen by every writer that
//     locked later, so a value cannot change under an undecided claim that
//     somebody looked under — the writer kills it first — and a helper that
//     finds the word locked waits for what the writer leaves. The failed
//     MCAS re-captures and retries. Every kill is paid for by a successful
//     commit, so the system as a whole remains lock-free (the Theorem 2
//     analogue for composition).
//   - The decision (undecided → succeeded) happens while holding the lock
//     bit of every leg's Var, validation-only legs (Old == New) included,
//     waited for in Var-id order — the order committing transactions take
//     theirs, and they abort rather than wait, so nothing can deadlock. A
//     writer of any leg and the decision therefore exclude each other: the
//     writer's kill lands before the flip or the flip before the writer's
//     lock, never between a committer's validation and its kill — a
//     transaction that read one leg and writes a validation-only one would
//     otherwise commit beside a MultiCAS that assumed the old value of the
//     leg it wrote (a write skew; TestWriteSkewAgainstGuardedMultiCAS). And
//     the operation has succeeded, for everyone who asks the descriptor, the
//     moment its status flips, so from then until the values are in place no
//     reader may get past those Vars. The winner of the status CAS moves the
//     values itself, there and then — stores each write leg's new value word,
//     draws a commit version, and stamps each write leg's Var, which unlocks
//     it and aborts exactly the transactions that read a Var the MCAS writes.
//     A validation-only leg gets its old stamp back, as does every leg of a
//     decision that lost the status CAS: their values did not change, so a
//     reader that waited out the bit has nothing more to observe.
//   - Release only empties the claim slots that still hold the descriptor.
//     No value depends on it, readers never waited for it, and a claim it
//     has not got to yet — or that a late helper puts back — is a decided
//     descriptor's: transparent to pendingDesc, harmless to kill, overwritten
//     by the next claimer.
//
// On real RTM none of this is needed — the fallback MCAS and hardware
// transactions conflict through the cache-coherence protocol. The lock-bit
// choreography is the software-emulation analogue, and it inherits the
// package's documented caveat that a preempted holder of a lock bit can
// delay (but not block) the decision of concurrent MCASes.

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

// MultiDesc is the descriptor for an in-flight MultiCAS. Vars claimed by the
// operation hold it in their claim slot until the release phase empties it.
type MultiDesc struct {
	status  atomic.Uint32
	d       *Domain
	entries []Entry
}

// Entry is one leg of a MultiCAS: a typed Var, the value it must still hold,
// and the value to install. Entries are created with NewUpdate; Old == New
// makes the leg a pure validation (a DCSS read-guard generalized to N legs).
// The protocol runs on the Var's untyped head; an Entry adds the two things
// that need T: whether the Var holds the old value, and storing the new one.
type Entry interface {
	head() *varHead
	writes() bool
	holds() bool
	move()
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

func (u *Update[T]) head() *varHead { return &u.v.varHead }
func (u *Update[T]) writes() bool   { return u.old != u.new }

// holds reports whether the leg's Var holds the leg's old value, by a direct
// read: it waits out a writer in flight.
func (u *Update[T]) holds() bool { return u.v.decode(u.v.read()) == u.old }

// move stores the leg's new value. It is the decision's winner's, which
// holds the Var's lock bit.
func (u *Update[T]) move() { u.v.storeP(u.v.encode(u.new)) }

// claim puts m in the claim slot of e's Var, unless an undecided foreign
// descriptor is there (the caller helps it and comes again), and then — also
// when m was there already — looks at the Var's value: each helper must see
// for itself that the leg holds.
func (m *MultiDesc) claim(e Entry) (claimResult, *MultiDesc) {
	h := e.head()
	for {
		c := h.claim.Load()
		if c == m {
			break
		}
		if c != nil && c.status.Load() == mwUndecided {
			return claimForeign, c
		}
		if h.claim.CompareAndSwap(c, m) { // free, or a decided descriptor's leftover
			break
		}
	}
	perturb(claimPlaced)
	if !e.holds() {
		return claimMismatch, nil
	}
	return claimOK, nil
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
	slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.head().id, b.head().id) })
	d := entries[0].head().d
	for i, e := range entries {
		if e.head().d != d {
			panic("htm: MultiCAS entries span domains")
		}
		if i > 0 && e.head() == entries[i-1].head() {
			panic("htm: duplicate Var in MultiCAS entry set")
		}
	}
	m := &MultiDesc{d: d, entries: entries}
	m.claimAll()
	if park != nil && m.status.Load() == mwUndecided {
		park()
	}
	perturb(mcasClaimed)
	m.decide()
	perturb(mcasDecided)
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

// claimAll is the claim phase: claim and look at each Var in Var-id order,
// helping foreign descriptors met along the way; a value mismatch decides
// failure.
func (m *MultiDesc) claimAll() {
claim:
	for _, e := range m.entries {
		for {
			if m.status.Load() != mwUndecided {
				break claim
			}
			res, foreign := m.claim(e)
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

// decide moves an undecided descriptor to succeeded while holding the lock
// bit of every entry's Var, write leg or not, each waited for in the entries'
// Var-id order (deadlock-free against other decisions; committing
// transactions abort and direct writers hold one bit, so neither waits for a
// second). The bits are the decision's mutual exclusion with the writers
// that kill undecided descriptors they collide with — whoever writes a leg,
// a validation-only one too, either killed the descriptor before the flip or
// locks after the values are in place — and exactly one caller wins the
// status CAS under them. A caller that finds the descriptor decided while it
// waits gives its bits back and leaves. Whoever sees the status flipped may
// report success and go on to read the legs' Vars, and waits there until the
// values are in. The winner stores them, then draws the commit version and
// stamps the write legs' Vars, which unlocks them and aborts precisely the
// transactions that read a Var it writes; every other leg — a validation-only
// one, or any leg of a loser: another helper already decided, and if it
// succeeded already moved and stamped, or a writer killed the descriptor —
// gets its old stamp back.
func (m *MultiDesc) decide() {
	if m.status.Load() != mwUndecided {
		return
	}
	for i, e := range m.entries {
		h := e.head()
		for !h.tryLock() {
			perturb(decideWaits)
			if m.status.Load() != mwUndecided {
				unlockLegs(m.entries[:i], 0)
				return
			}
			runtime.Gosched()
		}
	}
	perturb(decideLocked)
	var wv uint64
	if m.status.CompareAndSwap(mwUndecided, mwSucceeded) {
		perturb(decideWon)
		for _, e := range m.entries {
			if e.writes() {
				e.move()
			}
		}
		perturb(decideMoved)
		wv = m.d.clock.Add(1)
		perturb(decideDrawn)
	}
	unlockLegs(m.entries, wv)
}

// unlockLegs gives up the lock bits of the given legs: with wv != 0 — the
// version the decision's winner drew — by stamping the write legs, and
// otherwise, and for every other leg, by putting the old stamp back.
func unlockLegs(legs []Entry, wv uint64) {
	for _, e := range legs {
		if wv != 0 && e.writes() {
			e.head().ver.Store(wv)
		} else {
			e.head().unlockVer()
		}
	}
}

// stackLegs is how many legs' worth of scratch a MultiValidate keeps on its
// stack; wider entry sets spill to the heap.
const stackLegs = 16

// releaseAll empties the claim slots that still hold m. Idempotent; m is
// decided.
func (m *MultiDesc) releaseAll() {
	for _, e := range m.entries {
		if h := e.head(); h.claim.Load() == m {
			h.claim.CompareAndSwap(m, nil)
		}
	}
}

// MultiValidate reports whether every entry holds its old value at a single
// instant: the checks run between two looks at every entry's Var's word that
// find it unlocked and unchanged, so no writer touched any of the entries'
// Vars while they ran — the per-Var window of a direct Load, over several
// Vars at once; writers elsewhere in the domain do not disturb it. It is the
// read-only commit of the composition layer's fallback path — validation
// without publication.
func MultiValidate(entries ...Entry) bool {
	if len(entries) == 0 {
		return true
	}
	d := entries[0].head().d
	var buf [stackLegs]uint64
	snaps := buf[:]
	if len(entries) > len(snaps) {
		snaps = make([]uint64, len(entries))
	}
retry:
	for {
		for i, e := range entries {
			h := e.head()
			if h.d != d {
				panic("htm: MultiValidate entries span domains")
			}
			w := h.ver.Load()
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
