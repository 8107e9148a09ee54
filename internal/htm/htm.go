// Package htm provides a software emulation of a best-effort hardware
// transactional memory in the style of Intel's Restricted Transactional
// Memory (RTM), which the paper uses as its execution substrate.
//
// The emulation preserves the RTM *failure model*, which is what Prefix
// Transaction Optimization (PTO) is designed around:
//
//   - a transaction may abort at any point, for any reason;
//   - aborts carry a status (conflict, capacity, explicit) so retry policies
//     can distinguish transient from permanent failure;
//   - code must always provide a non-transactional fallback;
//   - committed transactions are strongly atomic: no concurrent reader,
//     transactional or not, observes a partial commit.
//
// Internally this is a single-version, lazy-versioning STM in the TL2
// style: a global commit clock per Domain and one versioned lock word on
// every Var — the clock value of the last write to that Var, with a top bit
// a writer sets, by compare-and-swap, while its write is in flight. That bit
// is the only lock there is: a writer locks the Var it writes and nothing
// else. A Var holds its value: the word next to the versioned lock is the
// value itself when T is a pointer type — every link of every structure here
// — and otherwise points at an immutable box of T. Only the holder of the
// Var's lock bit stores that word, so whenever the lock word is unlocked the
// value word is the logical value, and that is all a reader knows: a
// transaction snapshots the commit clock at begin; every transactional read
// looks at the Var's word, takes the value, and looks at the word again:
// unlocked, unchanged and no newer than the snapshot, or the read waits (for
// the Var's writer, boundedly) or aborts. A read touches its Var and nothing
// else — no box for a pointer, no descriptor ever: a MultiCAS claims a Var
// through a slot of its own (multicas.go), which only writers and other
// MultiCASes look at. Transactional writes are buffered and applied at
// commit: the commit takes the lock bit of every written Var, in ascending
// Var-id order and aborting — never waiting — on one that is taken, before it
// draws its version and before any value moves, re-checks every word the
// attempt read, and stamps each written Var with the version, which unlocks
// it. Non-transactional writes wait for their Var's bit, and
// non-transactional reads use the same per-Var window, so no code path can
// observe a half-applied commit.
//
// Conflicts are detected per location and only there: a transaction aborts
// when a Var it read or writes is locked by another writer, or a Var it read
// carries a stamp newer than its snapshot — the rule PTO's prefix
// transactions are designed around (§2, §4.6). Two writers of different Vars
// never meet, which is what lets disjoint-footprint operations — different
// hash buckets, distant skiplist keys, separate BST subtrees — commit
// concurrently, the way they do under real per-cache-line HTM conflict
// detection.
//
// The one property of real HTM this emulation cannot preserve is progress of
// the combined system: the commit path holds lock bits, so a preempted
// committer can delay readers and writers of the Vars it writes, whereas real
// RTM commits in a bounded number of hardware steps. The deterministic machine
// simulator in internal/sim models true requester-wins HTM and carries the
// paper's progress and performance claims; this package carries correctness
// of the PTO code structure under real Go concurrency.
package htm

import (
	"cmp"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Status reports how a transaction attempt ended. It mirrors the RTM status
// word delivered to the fallback path of XBEGIN.
type Status int

const (
	// Committed means the transaction ran to completion and its writes are
	// visible atomically.
	Committed Status = iota
	// AbortConflict means a concurrent writer invalidated the transaction's
	// snapshot (the analogue of an RTM data-conflict abort).
	AbortConflict
	// AbortCapacity means the transaction's read or write footprint exceeded
	// the configured capacity (the analogue of an RTM capacity abort).
	AbortCapacity
	// AbortExplicit means the transaction called Abort itself, e.g. because
	// it observed a state in which it would have to help a concurrent
	// operation (§2.4 of the paper), or because a helping or deferring
	// attempt met more undecided descriptors than its budget (HelpExhausted).
	AbortExplicit
)

// String returns a short human-readable name for the status.
func (s Status) String() string {
	switch s {
	case Committed:
		return "committed"
	case AbortConflict:
		return "conflict"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Stats counts transaction outcomes for a Domain. All fields are cumulative.
type Stats struct {
	Commits   uint64
	Conflicts uint64
	// FalseConflicts is always 0: every conflict is a Var's own.
	// Kept only because benchmark/run.go:604 fills and subtracts it.
	FalseConflicts uint64
	Capacity       uint64
	Explicit       uint64
}

// Domain is an independent transactional memory. Transactions in different
// domains never conflict with each other; a data structure instance typically
// owns one Domain. The zero value is ready to use.
type Domain struct {
	// clock is the TL2-style global commit clock: it only ever advances, by
	// one per writing commit (transactional or direct). A transaction
	// snapshots it at begin; a Var whose stamp exceeds the snapshot has been
	// written since the transaction began.
	clock atomic.Uint64

	commits   atomic.Uint64
	conflicts atomic.Uint64
	capacity  atomic.Uint64
	explicit  atomic.Uint64

	// readCap and writeCap bound the transactional footprint; zero means the
	// package defaults. They model HTM capacity limits and are stored
	// atomically so they can be retuned while transactions are in flight.
	readCap  atomic.Int64
	writeCap atomic.Int64
}

// Default capacity limits, chosen to approximate an L1-bounded write set and
// an L2-tracked read set as on Haswell RTM.
const (
	DefaultReadCap  = 4096
	DefaultWriteCap = 448
)

// NewDomain returns a Domain with the given footprint limits. Passing zero
// for either limit selects the package default.
func NewDomain(readCap, writeCap int) *Domain {
	d := &Domain{}
	d.SetCapacity(readCap, writeCap)
	return d
}

// NewDomainStripes is NewDomain; the third argument is ignored.
// Kept only because benchmark/lib.go:47, probes.go:216 and serve.go:356 call it.
func NewDomainStripes(readCap, writeCap, _ int) *Domain { return NewDomain(readCap, writeCap) }

// Stripes always returns 0.
// Kept only because benchmark/probes.go:488 reads it.
func (d *Domain) Stripes() int { return 0 }

// Remaps always returns 0. Kept only because benchmark/lib.go:163 reads it.
func (d *Domain) Remaps() uint64 { return 0 }

// SetCapacity changes the domain's footprint limits. Zero selects the
// package default; a negative value selects a zero-capacity domain in which
// every transactional read or write aborts with AbortCapacity, forcing all
// operations (including composed transactions) down their fallback paths —
// the software analogue of running on a machine without HTM. It is intended
// for tests and tuning experiments — e.g. a read capacity of 1 makes every
// multi-read transaction abort with AbortCapacity. It is safe to call
// concurrently with transactions: each attempt reads the limits once at
// start, so in-flight attempts finish under whichever limits they began
// with.
func (d *Domain) SetCapacity(readCap, writeCap int) {
	d.readCap.Store(int64(readCap))
	d.writeCap.Store(int64(writeCap))
}

// Stats returns a snapshot of the domain's cumulative transaction outcomes.
func (d *Domain) Stats() Stats {
	return Stats{
		Commits:   d.commits.Load(),
		Conflicts: d.conflicts.Load(),
		Capacity:  d.capacity.Load(),
		Explicit:  d.explicit.Load(),
	}
}

func (d *Domain) caps() (int, int) {
	r, w := int(d.readCap.Load()), int(d.writeCap.Load())
	switch {
	case r == 0:
		r = DefaultReadCap
	case r < 0:
		r = 0
	}
	switch {
	case w == 0:
		w = DefaultWriteCap
	case w < 0:
		w = 0
	}
	return r, w
}

// varIDs issues Var identities: the global order in which commits and
// MultiCAS decisions take lock bits, and MultiCAS claims are placed.
var varIDs atomic.Uint64

// idInline marks, in a Var's id, a Var whose value word is the value itself
// (T is a pointer type) rather than a pointer to a box of T. It is part of
// the identity — set once by Init, ordered like the rest of the id — so the
// word a read already holds says how to decode the value it took.
const idInline = 1 << 63

// Var is a transactional cell holding a value of comparable type T. Vars must
// be created by Init (or NewVar) so they are bound to a Domain; the zero
// Var is not usable. All access goes through Load, Store, CAS, and Add, which
// take an optional transaction: a nil *Tx selects the direct, non-speculative
// path used by fallback code. Vars additionally participate in MultiCAS, the
// lock-free multi-Var publication primitive of the composition layer.
//
// A Var is its five-word head and nothing else: T only decides how the value
// word is read (decode) and made (encode).
type Var[T comparable] struct {
	varHead
}

// varHead is every Var[T] without its type, and what a transaction's read
// and write logs point at: the Var's domain, its identity, its versioned
// lock, its value word and its MultiCAS claim slot — 40 bytes, the three
// words a read touches next to each other.
type varHead struct {
	d  *Domain
	id uint64
	// ver is the Var's versioned lock: the commit-clock value of the last
	// write to this Var (0: never written since Init), with verLocked set
	// while a write is in flight. The bit is taken by compare-and-swap on the
	// unlocked word (tryLock) and only its holder stores the word after
	// that. Every writer — Tx.commit, a direct Store or Add, a direct CAS
	// about to succeed, a MultiCAS decision for every leg — holds the bit
	// before it stores p and before it draws its commit version, and gives
	// it up by storing that version (or, having written nothing, the old
	// stamp back). A locked word compares greater than every snapshot,
	// stamps only grow, and so a reader that finds the same word ≤ its
	// snapshot on both sides of its read of p holds a value no writer was
	// replacing, no newer than the snapshot, and — the bit preceding the
	// draw — misses no write of a version the snapshot covers.
	ver atomic.Uint64
	// p is the value word: the value itself (id&idInline != 0) or a pointer
	// to an immutable box holding it. Only the holder of the Var's lock bit
	// stores it, so under an unlocked ver it is the Var's logical value,
	// whatever claim says. Accessed atomically (loadP, storeP) after Init.
	p unsafe.Pointer
	// claim is the MultiCAS descriptor claiming the Var, or nil. Readers
	// never look at it. An undecided descriptor in it asserts that the Var
	// still holds that operation's old value, and a writer makes the
	// assertion true the only way it can: it kills the descriptor (kill)
	// after it has taken the lock bit and before it gives it up. A decided
	// descriptor in it is stale and means nothing; its helpers clear it
	// (release) or the next claimer overwrites it.
	claim atomic.Pointer[MultiDesc]
}

// verLocked is the write-lock bit of varHead.ver.
const verLocked = 1 << 63

// tryLock takes the Var's write-lock bit unless a writer holds it, or gets to
// the word between the look and the compare-and-swap.
func (h *varHead) tryLock() bool {
	w := h.ver.Load()
	return w&verLocked == 0 && h.ver.CompareAndSwap(w, w|verLocked)
}

// lock waits for the Var's write-lock bit: a direct Store or Add, which holds
// no other bit while it waits and so cannot be part of a cycle.
func (h *varHead) lock() {
	for !h.tryLock() {
		runtime.Gosched()
	}
}

// unlockVer gives up the write-lock bit of a Var whose value the caller did
// not change, leaving the stamp as it was.
func (h *varHead) unlockVer() { h.ver.Store(h.ver.Load() &^ verLocked) }

func (h *varHead) loadP() unsafe.Pointer   { return atomic.LoadPointer(&h.p) }
func (h *varHead) storeP(p unsafe.Pointer) { atomic.StorePointer(&h.p, p) }

// window returns the Var's lock word and its value word, the second from
// between two looks at the first that find it unlocked and unchanged, waiting
// out a writer in flight: what every reader without a snapshot to judge by
// sees — a direct Load or CAS, a MultiCAS helper's look at a claimed Var.
func (h *varHead) window() (uint64, unsafe.Pointer) {
	for {
		w := h.ver.Load()
		if w&verLocked != 0 {
			runtime.Gosched()
			continue
		}
		p := h.loadP()
		if h.ver.Load() == w {
			return w, p
		}
	}
}

// read returns the value word of a window.
func (h *varHead) read() unsafe.Pointer {
	_, p := h.window()
	return p
}

// kill fails the undecided MultiCAS claiming the Var, if there is one. The
// caller holds the Var's lock bit and has not stamped yet: a decision holds
// the bit of every leg while it flips the status, so the status CAS cannot
// race with this one, and a helper that claims or looks from now on finds the
// lock bit and, after it, the new value. The kill comes before the stamp
// because the stamp is the unlock: a decision waiting for the bit takes it
// the moment the word is stamped, and must find the descriptor dead. A
// decided descriptor is left in the slot.
func (h *varHead) kill() {
	if m := h.claim.Load(); m != nil {
		m.status.CompareAndSwap(mwUndecided, mwFailed)
	}
}

// pendingDesc returns the undecided MultiCAS descriptor claiming the Var, if
// any, for commit's helping pass.
func (h *varHead) pendingDesc() *MultiDesc {
	if m := h.claim.Load(); m != nil && m.status.Load() == mwUndecided {
		return m
	}
	return nil
}

// write is a single-Var direct writer's store, the Var's lock bit held: kill
// the claim, store the value word, and stamp the Var with a fresh commit
// version, which unlocks it.
func (h *varHead) write(p unsafe.Pointer) {
	h.kill()
	h.storeP(p)
	perturb(directStored)
	h.ver.Store(h.d.clock.Add(1))
	perturb(directStamped)
}

// decode returns the value a value word of v stands for. A box is immutable
// once a Var points at it, so a word taken inside a read window can be
// decoded after it.
func (v *Var[T]) decode(p unsafe.Pointer) T {
	if v.id&idInline != 0 {
		return *(*T)(unsafe.Pointer(&p))
	}
	return *(*T)(p)
}

// encode returns a value word for x: x itself for an inline Var, else a
// fresh box.
func (v *Var[T]) encode(x T) unsafe.Pointer {
	if v.id&idInline != 0 {
		return *(*unsafe.Pointer)(unsafe.Pointer(&x))
	}
	b := new(T)
	*b = x
	return unsafe.Pointer(b)
}

// reencode returns a value word for x given p, one of v's that no Var points
// at yet: its box, if it has one, is overwritten rather than replaced.
func (v *Var[T]) reencode(p unsafe.Pointer, x T) unsafe.Pointer {
	if v.id&idInline != 0 {
		return v.encode(x)
	}
	*(*T)(p) = x
	return p
}

// Init binds an embedded Var to domain d and sets its initial value. It must
// be called exactly once, before any concurrent access; it is intended for
// initializing Var fields of freshly allocated nodes. Init assigns the Var
// its identity — its place in the lock order — and decides, once, whether
// the value word holds T itself.
func (v *Var[T]) Init(d *Domain, init T) {
	v.d = d
	v.id = varIDs.Add(1)
	if reflect.TypeFor[T]().Kind() == reflect.Pointer {
		v.id |= idInline
	}
	v.p = v.encode(init)
}

// NewVar allocates a Var bound to domain d holding init.
func NewVar[T comparable](d *Domain, init T) *Var[T] {
	v := new(Var[T])
	v.Init(d, init)
	return v
}

// Domain returns the domain the Var is bound to.
func (v *Var[T]) Domain() *Domain { return v.d }

// ID returns the Var's identity, unique across all Vars.
func (v *Var[T]) ID() uint64 { return v.id }

// Tx is an in-flight transaction. A Tx is only valid inside the function
// passed to Atomically and must not be retained, shared between goroutines,
// or used after that function returns: attempts take their Tx from a pool
// and recycle it when they end, so its sets, log and commit scratch keep
// their capacity and a steady-state attempt allocates nothing but the boxes
// it publishes — none for a Var of pointer type. Load, Store and Abort
// through a recycled Tx panic (live).
type Tx struct {
	d  *Domain // nil once the attempt has returned (live)
	rv uint64  // commit-clock snapshot taken at begin (the TL2 read version)

	reads   int
	readLog []*varHead // one entry per transactional read: the words commit re-checks

	// writeLog is the redo log, in order of first writes while the body runs.
	// writeIdx maps a written Var's id to its log position (logPos); written
	// is a 64-bit filter over those ids (bit id&63), so a Load of a Var the
	// attempt has not written — every step of a search walk — mostly stops
	// there. commit sorts the log in place into the lock order: from then on
	// the positions in writeIdx are stale, and commit asks logPos only
	// whether a Var was written (the sign).
	writeLog []writeEntry
	writeIdx []idxSlot
	written  uint64

	readCap  int
	writeCap int
	// aborted is the status of an attempt that unwound out of its body
	// (abort).
	aborted Status

	// helpBudget and helped implement the three-path template's middle
	// tier: a transaction run with a positive budget (AtomicallyHelping)
	// drives up to helpBudget undecided MultiCAS descriptors claiming its
	// written Vars to decision at commit — instead of killing them or
	// aborting on sight — then aborts explicitly (HelpExhausted). The fast
	// path runs with budget 0 and is untouched. deferPending is the
	// budget-0 variant for the fast level of a three-path site
	// (AtomicallyDeferring): an undecided descriptor on the write set
	// aborts the attempt instead of being killed, deferring the encounter
	// to the helping tier below.
	helpBudget   int
	helped       int
	deferPending bool
}

// txPool recycles Tx values across attempts (and goroutines). A pooled Tx is
// a zero Tx but for the capacity of its slices.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// recycle returns tx to the pool as a zero Tx with capacity: cleared, so it
// pins no value, Var or domain, and detached (live). The write index is
// cleared over the length this attempt grew it to, so it is all zero, to its
// capacity, whenever an attempt begins.
func (tx *Tx) recycle() {
	clear(tx.readLog)
	clear(tx.writeLog)
	clear(tx.writeIdx)
	*tx = Tx{
		readLog:  tx.readLog[:0],
		writeLog: tx.writeLog[:0],
		writeIdx: tx.writeIdx[:0],
	}
	txPool.Put(tx)
}

// live panics on a Tx whose attempt has already returned.
func (tx *Tx) live() {
	if tx.d == nil {
		panic("htm: Tx used after its attempt returned")
	}
}

// writeEntry is one redo-log record: the written Var and the value word
// commit will store in it, made by the first Store to the Var and private to
// the attempt until then (write-after-write re-encodes it, read-own-write
// decodes it): a write costs the box the Var must point
// at, and nothing when the word is the value.
type writeEntry struct {
	h *varHead
	p unsafe.Pointer
}

// Abort aborts the running transaction with AbortExplicit (the analogue of
// XABORT imm8; code documents the reason at the call site — retry policies
// act on the status alone). It does not return.
func (tx *Tx) Abort(code int) {
	tx.live()
	tx.abort(AbortExplicit)
}

// abort unwinds the attempt's body back to attempt, which reports st. The
// panic payload is the Tx itself: boxing a pointer allocates nothing, and no
// other attempt's unwinding can be mistaken for this one's.
func (tx *Tx) abort(st Status) {
	tx.aborted = st
	panic(tx)
}

// Atomically runs f as a single transaction attempt against domain d and
// reports how it ended. It makes exactly one attempt: retry policy is the
// caller's responsibility (see internal/speculate), mirroring the paper's
// model in which TxBegin may "return more than once" and the program decides
// whether to retry or run the fallback.
//
// If f returns normally the transaction commits (Committed). If f calls
// Tx.Abort, or a conflict or capacity condition arises, the attempt's
// buffered writes are discarded and the corresponding abort status is
// returned. Panics not originating from the transaction machinery propagate
// to the caller after the attempt is rolled back.
//
// Nesting is not supported: f must not call Atomically.
func (d *Domain) Atomically(f func(tx *Tx)) Status {
	st, _ := d.atomically(0, false, f)
	return st
}

// HelpExhausted is the abort code of a helping (middle-level) transaction
// that ran out of helping budget: it encountered more undecided MultiCAS
// descriptors on its write set than helpBudget allowed, helped that many to
// decision, and aborted explicitly rather than kill the rest (commit raises
// this AbortExplicit, not the body; callers see the status). The helping
// is real progress — the decided descriptors stay decided — so retry
// policies treat the abort as consuming one attempt, not the level. A
// deferring fast attempt (AtomicallyDeferring, budget 0) aborts with the
// same code on the first pending descriptor it finds, having helped none.
const HelpExhausted = -2

// AtomicallyHelping is Atomically with a helping budget: the three-path
// template's middle tier. A transaction run with helpBudget > 0 does not
// treat an undecided MultiCAS descriptor on a written Var as an obstacle to
// kill (the writers' rule, varHead.kill) — at commit, before taking any lock
// bit, it drives up to helpBudget such descriptors to decision via their own
// lock-free protocol, then locks, validates, and publishes as usual. Budget
// exhausted mid-pass aborts the attempt explicitly with code HelpExhausted,
// leaving the remaining descriptors unharmed. The second result reports how
// many descriptors this attempt helped to decision (counted even when the
// attempt subsequently aborts: decisions are real, externally visible
// progress). helpBudget <= 0 is exactly Atomically.
func (d *Domain) AtomicallyHelping(helpBudget int, f func(tx *Tx)) (Status, int) {
	return d.atomically(helpBudget, false, f)
}

// AtomicallyDeferring is Atomically for the fast level of a three-path site:
// a budget-0 transaction that, at commit, aborts explicitly (code
// HelpExhausted) when an undecided MultiCAS descriptor sits on any written
// Var — instead of killing it, the two-path kill-paid-by-commit rule. The
// abort leaves the descriptor alive for the helping middle tier below
// (speculate.Run.Try picks it for a level above a Help level). Descriptors
// that land on written Vars after the commit-time check are still killed
// under the lock bit, the unconditional backstop.
func (d *Domain) AtomicallyDeferring(f func(tx *Tx)) Status {
	st, _ := d.atomically(0, true, f)
	return st
}

func (d *Domain) atomically(helpBudget int, deferPending bool, f func(tx *Tx)) (Status, int) {
	tx := txPool.Get().(*Tx)
	tx.d, tx.rv = d, d.clock.Load()
	tx.readCap, tx.writeCap = d.caps()
	tx.helpBudget, tx.deferPending = helpBudget, deferPending
	// A foreign panic out of f unwinds past the recycle: that Tx is dropped.
	status := d.attempt(tx, f)
	helped := tx.helped
	tx.recycle()
	switch status {
	case Committed:
		d.commits.Add(1)
	case AbortConflict:
		d.conflicts.Add(1)
	case AbortCapacity:
		d.capacity.Add(1)
	case AbortExplicit:
		d.explicit.Add(1)
	}
	return status, helped
}

func (d *Domain) attempt(tx *Tx, f func(tx *Tx)) (status Status) {
	defer func() {
		if r := recover(); r != nil {
			if r != any(tx) {
				panic(r)
			}
			status = tx.aborted
		}
	}()
	f(tx)
	return tx.commit()
}

// commit publishes the write log with the TL2 protocol: take the lock bit of
// every written Var, in ascending Var-id order and aborting — never waiting —
// on one a writer holds (so a committer is never part of a cycle, and of two
// commits with crossed write sets the one that loses the first Var aborts
// with no bit taken), draw a new commit timestamp, validate the read log,
// and apply the redo log — kill the Var's claim, store its value word, stamp
// and so unlock it with the timestamp, Var by Var. Read-only transactions
// commit without any locking or validation at all — every read was already
// validated against the begin snapshot, so the transaction serializes there
// — mirroring the cheapness of read-only HTM commits.
func (tx *Tx) commit() Status {
	log := tx.writeLog
	if len(log) == 0 {
		return Committed
	}
	d := tx.d

	// Helping pass (middle path): a budgeted transaction drives undecided
	// MultiCAS descriptors claiming its written Vars to decision before
	// taking any lock bit — a decision waits for the bits of its legs, so
	// helping while holding one could deadlock against it. Descriptors that
	// land on our Vars after this pass are still killed under the lock bit,
	// the kill-paid-by-commit backstop; the pass just makes the common
	// encounter cooperative instead of destructive. Budget 0 skips the
	// pass entirely on the kill-semantics fast path; a deferring attempt
	// (AtomicallyDeferring, budget 0) runs the pass only to detect a
	// pending descriptor and abort without harming it.
	if tx.helpBudget > 0 || tx.deferPending {
		for i := range log {
			h := log[i].h
			for {
				m := h.pendingDesc()
				if m == nil {
					break
				}
				if tx.helped >= tx.helpBudget {
					return AbortExplicit // code HelpExhausted
				}
				tx.helped++
				m.help()
			}
		}
	}

	// Lock phase: one look and one compare-and-swap per written Var, in the
	// one global order; on a Var someone else holds, give back the bits taken
	// so far and abort. From its bit on, every reader of a written Var waits
	// or aborts. The bits come before the timestamp is drawn — a reader whose
	// snapshot covers our version must not find one of our Vars still looking
	// old — and before any value moves.
	if len(log) > 1 {
		slices.SortFunc(log, func(a, b writeEntry) int { return cmp.Compare(a.h.id, b.h.id) })
	}
	perturb(commitSorted)
	for i := range log {
		if i > 0 {
			perturb(commitLockedVar)
		}
		if !log[i].h.tryLock() {
			unlockVers(log[:i])
			return AbortConflict
		}
	}

	perturb(commitLocked)
	wv := d.clock.Add(1)
	perturb(commitDrawn)
	// Validate the read log unless no one drew a version since our snapshot
	// (every writer of a version the snapshot covers had its lock bits set
	// before we took it, so every read is trivially still current): no Var
	// we read may be newer than the snapshot or locked by anyone else. Our
	// own lock bit on a Var read and then written hides only its old stamp.
	// A writer that sets its bit after this look draws a later timestamp and
	// serializes behind us.
	if wv != tx.rv+1 {
		for _, h := range tx.readLog {
			w := h.ver.Load()
			if w > tx.rv && (w&^verLocked > tx.rv || tx.logPos(h.id) < 0) {
				unlockVers(log)
				return AbortConflict
			}
		}
	}

	// Apply the redo log, stamping as we go. The commit is certain from here,
	// so the kills are paid for; each comes before its Var's stamp, which
	// hands the Var to whoever waits for it (kill).
	perturb(commitValidated)
	for i := range log {
		e := &log[i]
		e.h.kill()
		e.h.storeP(e.p)
		e.h.ver.Store(wv)
	}
	perturb(commitStamped)
	return Committed
}

// unlockVers gives back the lock bits an aborting commit took.
func unlockVers(log []writeEntry) {
	for i := range log {
		log[i].h.unlockVer()
	}
}

// loadWaits is how many times a transactional Load looks again at a Var it
// found locked, or found changed under its read, before it aborts. A reader
// holds no lock, so waiting out a writer's few stores cannot deadlock; that
// a write has a duration at all is an artefact of the emulation, not of HTM.
const loadWaits = 16

// Load reads v. With a non-nil tx it is a transactional read: it returns the
// transaction's own pending write if any, and otherwise takes v's value word
// between two looks at v's lock word that must agree on an unlocked stamp no
// newer than the transaction's snapshot — waiting, boundedly, while v's own
// writer holds the lock bit, and aborting with a true conflict if it keeps it
// or if v has been written since the transaction began. The read counts
// against the read capacity and touches nothing but v. With tx == nil it is
// a direct read through the same window, without the snapshot: it never
// observes a partially applied commit (it waits out v's writer).
func Load[T comparable](tx *Tx, v *Var[T]) T {
	if tx == nil {
		return v.decode(v.read())
	}
	tx.live()
	// The filter is tested here as well as in logPos: that is a call, and
	// the steps of a search walk should not make it.
	if tx.written&(1<<(v.id&63)) != 0 {
		if i := tx.logPos(v.id); i >= 0 {
			return v.decode(tx.writeLog[i].p)
		}
	}
	tx.reads++
	if tx.reads > tx.readCap {
		tx.abort(AbortCapacity)
	}
	tx.own(&v.varHead)
	for wait := 0; ; wait++ {
		w := v.ver.Load()
		if w <= tx.rv {
			p := v.loadP()
			if v.ver.Load() == w {
				tx.readLog = append(tx.readLog, &v.varHead)
				return v.decode(p)
			}
			continue // v's writer arrived under our read: look at what it left
		}
		if w&verLocked == 0 || wait >= loadWaits {
			tx.abort(AbortConflict)
		}
		runtime.Gosched()
	}
}

// own panics unless h's Var is bound to the transaction's domain. A Var of
// another domain carries stamps that mean that domain's clock: a transaction
// that logged it would validate and publish against the wrong one. It is
// checked where a Var enters the read log or the write log; d is on the line
// the access is about to touch anyway.
func (tx *Tx) own(h *varHead) {
	if h.d != tx.d {
		panic("htm: transaction Vars span domains")
	}
}

// idxSlot is one slot of the write index, an open-addressed table from a
// written Var's id to its position in the write log as the body wrote it
// (Tx.writeLog: commit's sort leaves the positions stale). Ids start at 1, so
// the zero slot is an empty one.
type idxSlot struct {
	id  uint64
	pos int
}

// idxMinLen is the write index's first size: a power of two, as every later
// one.
const idxMinLen = 16

// fibMul is the Fibonacci-hashing multiplier, 2^64 over the golden ratio: the
// top bits of id*fibMul spread small sequential ids evenly.
const fibMul = 0x9E3779B97F4A7C15

// idxHome is id's home slot in a write index of n slots (Fibonacci hashing:
// the ids are small sequential integers; n a power of two, at least 2).
func idxHome(id uint64, n int) int {
	return int(id * fibMul >> bits.LeadingZeros64(uint64(n-1)))
}

// logPos returns the write-log position of the Var with this id, or -1 if
// the attempt has not written it.
func (tx *Tx) logPos(id uint64) int {
	if tx.written&(1<<(id&63)) == 0 {
		return -1
	}
	idx := tx.writeIdx
	for i := idxHome(id, len(idx)); idx[i].id != 0; i = (i + 1) & (len(idx) - 1) {
		if idx[i].id == id {
			return idx[i].pos
		}
	}
	return -1
}

// indexWrite enters the Var the write log is about to record, at its end,
// into the write index, keeping the index at most half full: when it is not,
// it is doubled and refilled from the log.
func (tx *Tx) indexWrite(id uint64) {
	tx.written |= 1 << (id & 63)
	idx, pos := tx.writeIdx, len(tx.writeLog)
	if 2*(pos+1) > len(idx) {
		n := max(2*len(idx), idxMinLen)
		clear(idx)
		idx = slices.Grow(idx[:0], n)[:n]
		tx.writeIdx = idx
		for i := range tx.writeLog {
			idxPut(idx, tx.writeLog[i].h.id, i)
		}
	}
	idxPut(idx, id, pos)
}

// idxPut enters an id that idx does not hold yet.
func idxPut(idx []idxSlot, id uint64, pos int) {
	i := idxHome(id, len(idx))
	for idx[i].id != 0 {
		i = (i + 1) & (len(idx) - 1)
	}
	idx[i] = idxSlot{id, pos}
}

// Store writes x to v. With a non-nil tx the write is buffered and becomes
// visible atomically at commit; with tx == nil it is applied immediately
// under v's lock bit, waiting for it if need be.
func Store[T comparable](tx *Tx, v *Var[T], x T) {
	if tx == nil {
		p := v.encode(x)
		v.lock()
		v.write(p)
		return
	}
	tx.live()
	if i := tx.logPos(v.id); i >= 0 {
		tx.writeLog[i].p = v.reencode(tx.writeLog[i].p, x)
		return
	}
	if len(tx.writeLog) >= tx.writeCap {
		tx.abort(AbortCapacity)
	}
	tx.own(&v.varHead)
	tx.indexWrite(v.id)
	tx.writeLog = append(tx.writeLog, writeEntry{h: &v.varHead, p: v.encode(x)})
}

// CAS atomically compares v against old and, if equal, replaces it with new,
// reporting whether the swap happened. Inside a transaction this degenerates
// to a load, a comparison, and a buffered store — exactly the CAS-to-branch
// strength reduction of §2.3 — at no extra synchronization cost. Outside a
// transaction it is a linearizable compare-and-swap: it compares inside a
// window of v's lock word and then takes the lock bit on the very word the
// window saw — stamps only grow, so a word that is still the same has had no
// writer since — and looks again if it is not. A failed direct CAS neither
// locks nor stamps the Var: the logical value did not change, so overlapping
// transactions have nothing to observe.
//
// Interplay with MultiCAS descriptors refines the kill-paid-by-commit rule:
// a direct CAS kills an undecided descriptor claiming its Var only when the
// CAS is itself going to succeed — the value matches old, so the swap
// proceeds and its commit pays for the kill. When the value already
// disagrees, the CAS fails WITHOUT killing (it does not even look at the
// claim): it aborts its own operation and defers to the in-flight descriptor
// instead of spinning on (or destroying) it. Every structure's direct CAS
// leans on this: a fallback retry loop that lost anyway re-reads and tries
// again, and no unpaid kill ever degrades a concurrent composed operation's
// progress.
func CAS[T comparable](tx *Tx, v *Var[T], old, new T) bool {
	if tx != nil {
		if Load(tx, v) != old {
			return false
		}
		Store(tx, v, new)
		return true
	}
	for {
		w, p := v.window()
		if v.decode(p) != old {
			return false
		}
		np := v.encode(new)
		if v.ver.CompareAndSwap(w, w|verLocked) {
			v.write(np)
			return true
		}
	}
}

// Add atomically adds delta to an integer Var and returns the new value.
func Add(tx *Tx, v *Var[uint64], delta uint64) uint64 {
	if tx != nil {
		x := Load(tx, v) + delta
		Store(tx, v, x)
		return x
	}
	v.lock()
	x := v.decode(v.loadP()) + delta
	v.write(v.encode(x))
	return x
}
