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
// style: a global commit clock per Domain, one versioned lock word on every
// Var — the clock value of the last write to that Var, with a top bit a
// writer sets while its write is in flight — and a fixed array of striped
// writer mutexes hashed by Var identity, each padded to its own cache line.
// A Var holds its value: the word next to the versioned lock is the value
// itself when T is a pointer type — every link of every structure here — and
// otherwise points at an immutable box of T. Only a writer that holds the
// Var's stripe and its lock bit stores that word, so whenever the lock word
// is unlocked the value word is the logical value, and that is all a reader
// knows: a transaction snapshots the commit clock at begin; every
// transactional read looks at the Var's word, takes the value, and looks at
// the word again: unlocked, unchanged and no newer than the snapshot, or the
// read waits (for the Var's own writer, boundedly) or aborts. A read touches
// its Var and nothing else — no box for a pointer, no descriptor ever: a
// MultiCAS claims a Var through a slot of its own (multicas.go), which only
// writers and other MultiCASes look at. Transactional writes are
// buffered and applied at commit while holding the written Vars' stripes,
// acquired in ascending stripe order so commits stay deadlock-free, and with
// every written Var's lock bit set before the commit draws its version and
// before any value moves; commit re-checks every word the attempt read.
// Non-transactional writes take their Var's stripe and its lock bit, and
// non-transactional reads use the same per-Var window, so no code path can
// observe a half-applied commit. Conflicts are detected per location, which
// is what lets disjoint-footprint operations — different hash buckets,
// distant skiplist keys, separate BST subtrees — commit concurrently, the
// way they do under real per-cache-line HTM conflict detection.
//
// The Var's word is stamp and lock; a stripe is a writer mutex. Two Vars
// that hash to the same stripe exclude each other's writers while one is in
// flight, and a commit whose lock phase meets a stripe held on behalf of a
// Var the attempt never touched aborts on a stripe alias (a false conflict)
// — the only one left: readers never look at a stripe, so a write to an
// aliased Var, in flight or completed, aborts no reader. Only a word that is
// locked, or newer than the snapshot, on a Var the transaction actually read
// is a conflict, which is the rule PTO's prefix transactions are designed
// around (§2, §4.6). The engine classifies each conflict abort as true or
// alias, so telemetry can report the false-conflict rate; see
// AtomicallyClassified.
//
// The one property of real HTM this emulation cannot preserve is progress of
// the combined system: the commit path holds stripes and lock bits, so a
// preempted committer can delay others, whereas real RTM commits in a bounded
// number of hardware steps. The deterministic machine simulator in
// internal/sim models true requester-wins HTM and carries the paper's
// progress and performance claims; this package carries correctness of the
// PTO code structure under real Go concurrency.
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
// FalseConflicts is the subset of Conflicts the engine attributed to stripe
// aliasing rather than a true data conflict (see AtomicallyClassified).
type Stats struct {
	Commits        uint64
	Conflicts      uint64
	FalseConflicts uint64
	Capacity       uint64
	Explicit       uint64
}

// DefaultStripes is the default stripe table size. 256 stripes keep the
// whole table at 16KB (one cache line each) while making accidental aliasing
// of a handful of hot Vars unlikely. The count is a per-Domain option
// (NewDomainStripes): fewer stripes mean coarser writer mutexes — a writer in
// flight is met by more committers of unrelated Vars — and the 4-stripe
// configuration is the aliasing stress fixture.
const DefaultStripes = 256

// stripe is the mutex every writer of a Var that hashes to it holds while it
// writes, padded out to its own cache line so stripe traffic does not
// false-share. Only writers touch it: a reader judges a Var by the Var's own
// word (varHead.ver) and never looks at a stripe.
type stripe struct {
	// word is 0 while the stripe is free and otherwise the id of the Var on
	// whose behalf a writer (a committing transaction, a direct
	// Store/CAS/Add, or a deciding MultiCAS) holds it, which is what lets a
	// commit that finds the stripe busy tell a writer of its own data from a
	// stripe alias.
	word atomic.Uint64
	_    [56]byte
}

// stripeTable is a domain's stripe table: a power-of-two count of stripes
// plus the derived hash shift and bitmap width. It is built once per
// domain and never replaced, and its shape is immutable, so every path reads
// it without synchronization and a Var hashes to the same stripe for life.
type stripeTable struct {
	shift   uint32 // 64 - log2(len(stripes)): the Fibonacci-hash shift
	words   int    // stripe bitmap size in 64-bit words
	stripes []stripe
}

func newStripeTable(n int) *stripeTable {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("htm: stripe count %d is not a power of two", n))
	}
	return &stripeTable{
		shift:   uint32(64 - bits.TrailingZeros(uint(n))),
		words:   (n + 63) / 64,
		stripes: make([]stripe, n),
	}
}

// fibMul is the Fibonacci-hashing multiplier, 2^64 over the golden ratio: the
// top bits of id*fibMul spread small sequential ids evenly.
const fibMul = 0x9E3779B97F4A7C15

// indexOf hashes a Var id onto a stripe index (Fibonacci hashing; the ids
// are small sequential integers, so multiplicative scrambling is what
// spreads consecutively allocated Vars across the table). For the default
// 256-stripe table the shift is 56, reproducing the historical fixed hash
// bit for bit.
func (t *stripeTable) indexOf(id uint64) uint32 {
	return uint32((id * fibMul) >> t.shift)
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

	commits        atomic.Uint64
	conflicts      atomic.Uint64
	falseConflicts atomic.Uint64
	capacity       atomic.Uint64
	explicit       atomic.Uint64

	// readCap and writeCap bound the transactional footprint; zero means the
	// package defaults. They model HTM capacity limits and are stored
	// atomically so they can be retuned while transactions are in flight.
	readCap  atomic.Int64
	writeCap atomic.Int64

	// tbl is the domain's stripe table: set by NewDomainStripes, or built
	// with DefaultStripes on first use so the zero Domain stays ready to
	// use, and never replaced afterwards.
	tbl atomic.Pointer[stripeTable]
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

// NewDomainStripes is NewDomain with an explicit stripe count: a power of two
// (panics otherwise), 0 selecting DefaultStripes. It is the one place a
// stripe count is chosen; the table is fixed for the domain's life. Fewer
// stripes coarsen the writers' mutexes — more commits meet a stripe held for
// an unrelated Var (false conflicts), same correctness, and reads still
// conflict per Var only — which is the knob the aliasing stress tests turn.
func NewDomainStripes(readCap, writeCap, stripes int) *Domain {
	d := NewDomain(readCap, writeCap)
	if stripes == 0 {
		stripes = DefaultStripes
	}
	d.tbl.Store(newStripeTable(stripes))
	return d
}

// Stripes returns the domain's stripe count.
func (d *Domain) Stripes() int { return len(d.table().stripes) }

// Remaps always returns 0: a domain's stripe table is never swapped. Kept
// only because benchmark/lib.go:163 reads it.
func (d *Domain) Remaps() uint64 { return 0 }

// table returns the domain's stripe table, building the zero Domain's on
// first use.
func (d *Domain) table() *stripeTable {
	if t := d.tbl.Load(); t != nil {
		return t
	}
	d.tbl.CompareAndSwap(nil, newStripeTable(DefaultStripes))
	return d.tbl.Load()
}

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
		Commits:        d.commits.Load(),
		Conflicts:      d.conflicts.Load(),
		FalseConflicts: d.falseConflicts.Load(),
		Capacity:       d.capacity.Load(),
		Explicit:       d.explicit.Load(),
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

// acquire spins until it holds the stripe on behalf of Var owner. Only
// single-stripe writers and the MultiCAS decision use it; transactional
// commits never spin on a stripe (they abort instead), which is what keeps
// the spin here short.
func (s *stripe) acquire(owner uint64) {
	for !s.word.CompareAndSwap(0, owner) {
		runtime.Gosched()
	}
}

// release frees a held stripe.
func (s *stripe) release() { s.word.Store(0) }

// varIDs issues Var identities: the global order MultiCAS claims follow and
// the input of the stripe hash.
var varIDs atomic.Uint64

// idInline marks, in a Var's id, a Var whose value word is the value itself
// (T is a pointer type) rather than a pointer to a box of T. It is part of
// the identity — set once by Init, hashed and ordered like the rest of the id
// — so the word a read already holds says how to decode the value it took.
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
	// while a write is in flight. Only the holder of the Var's stripe stores
	// it, so plain stores suffice. Every writer — Tx.commit, a direct Store
	// or Add, a direct CAS about to succeed, the winner of a MultiCAS
	// decision for each write leg — sets the bit before it stores p and
	// before it draws its commit version, and clears it by storing that
	// version (or, having written nothing, the old stamp back). A locked
	// word compares greater than every snapshot, stamps only grow, and so a
	// reader that finds the same word ≤ its snapshot on both sides of its
	// read of p holds a value no writer was replacing, no newer than the
	// snapshot, and — the bit preceding the draw — misses no write of a
	// version the snapshot covers.
	ver atomic.Uint64
	// p is the value word: the value itself (id&idInline != 0) or a pointer
	// to an immutable box holding it. Only a holder of the Var's stripe and
	// lock bit stores it, so under an unlocked ver it is the Var's logical
	// value, whatever claim says. Accessed atomically (loadP, storeP) after
	// Init.
	p unsafe.Pointer
	// claim is the MultiCAS descriptor claiming the Var, or nil. Readers
	// never look at it. An undecided descriptor in it asserts that the Var
	// still holds that operation's old value, and a writer makes the
	// assertion true the only way it can: it kills the descriptor (kill)
	// after it has set the lock bit and before it stores p. A decided
	// descriptor in it is stale and means nothing; its helpers clear it
	// (release) or the next claimer overwrites it.
	claim atomic.Pointer[MultiDesc]
}

// verLocked is the write-lock bit of varHead.ver.
const verLocked = 1 << 63

// lockVer sets the Var's write-lock bit. The caller holds the Var's stripe.
func (h *varHead) lockVer() { h.ver.Store(h.ver.Load() | verLocked) }

// unlockVer clears the write-lock bit of a Var whose value the caller did
// not change, leaving the stamp as it was.
func (h *varHead) unlockVer() { h.ver.Store(h.ver.Load() &^ verLocked) }

func (h *varHead) loadP() unsafe.Pointer   { return atomic.LoadPointer(&h.p) }
func (h *varHead) storeP(p unsafe.Pointer) { atomic.StorePointer(&h.p, p) }

// read returns the Var's value word from between two looks at its lock word
// that find it unlocked and unchanged, waiting out a writer in flight: the
// window of every reader that has no snapshot to judge by — a direct Load, a
// MultiCAS helper's look at a claimed Var.
func (h *varHead) read() unsafe.Pointer {
	for {
		w := h.ver.Load()
		if w&verLocked != 0 {
			runtime.Gosched()
			continue
		}
		p := h.loadP()
		if h.ver.Load() == w {
			return p
		}
	}
}

// kill fails the undecided MultiCAS claiming the Var, if there is one. The
// caller holds the Var's stripe and lock bit and is about to store p: the
// descriptor's decision needs this stripe too, so the status CAS cannot race
// with it, and a helper that claims or looks from now on finds the lock bit
// and, after it, the new value. A decided descriptor is left in the slot.
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

// write is a single-Var direct writer's store: with the Var's stripe s held,
// set the lock bit, kill the claim, store the value word, stamp the Var with
// a fresh commit version, which unlocks it, and release the stripe.
func (h *varHead) write(s *stripe, p unsafe.Pointer) {
	h.lockVer()
	h.kill()
	h.storeP(p)
	perturb()
	h.ver.Store(h.d.clock.Add(1))
	s.release()
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
// its identity — its MultiCAS ordering id, from which the domain's table
// hashes the Var's stripe on every write (one multiply and shift) — and
// decides, once, whether the value word holds T itself.
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

// stripeRec is one stripe a commit or a MultiCAS decision writes through:
// its index in the domain's table and the id of the Var it holds the stripe
// for — the first Var a commit writes there.
type stripeRec struct {
	idx   uint32
	varID uint64
}

// Tx is an in-flight transaction. A Tx is only valid inside the function
// passed to Atomically and must not be retained, shared between goroutines,
// or used after that function returns: attempts take their Tx from a pool
// and recycle it when they end, so its sets, log and commit scratch keep
// their capacity and a steady-state attempt allocates nothing but the boxes
// it publishes — none for a Var of pointer type. Load, Store and Abort
// through a recycled Tx panic (live).
type Tx struct {
	d  *Domain
	t  *stripeTable // the domain's table; nil once the attempt has returned (live)
	rv uint64       // commit-clock snapshot taken at begin (the TL2 read version)

	reads   int
	readLog []*varHead // one entry per transactional read: the words commit re-checks

	// writeLog is the redo log: insertion-ordered so commit write-back
	// follows program order of first-writes. writeIdx maps a written Var's
	// id to its log position (logPos); written is a 64-bit filter over
	// those ids (bit id&63), so a Load of a Var the attempt has not written
	// — every step of a search walk — mostly stops there.
	writeLog []writeEntry
	writeIdx []idxSlot
	written  uint64

	// lockRecs and lockSet are the lock phase's scratch: the records and
	// the bitmap of the written stripes (writeRecs).
	lockRecs []stripeRec
	lockSet  []uint64

	readCap  int
	writeCap int
	// aborted is the status of an attempt that unwound out of its body
	// (abort); alias, whether the conflict that ended the attempt, there or
	// in commit, was attributed to stripe aliasing.
	aborted Status
	alias   bool

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
// pins no value, Var or domain (the stripe records hold indices, not
// pointers, and need no clearing), and detached (live). The write index is
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
		lockRecs: tx.lockRecs[:0],
		lockSet:  tx.lockSet,
	}
	txPool.Put(tx)
}

// live panics on a Tx whose attempt has already returned.
func (tx *Tx) live() {
	if tx.t == nil {
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

// heldByAlias classifies the conflict of a lock phase meeting a stripe held
// by someone else, from the owner observed in its word: true when the holder
// works on behalf of a Var the attempt has neither read nor written, i.e.
// the abort is due to stripe aliasing rather than to a writer of the
// attempt's own data. A holder names one Var per stripe, so a writer of
// several aliased Vars can still pass for an alias. It walks the read log,
// which only an abort path can afford.
func (tx *Tx) heldByAlias(owner uint64) bool {
	if tx.logPos(owner) >= 0 {
		return false
	}
	for _, h := range tx.readLog {
		if h.id == owner {
			return false
		}
	}
	return true
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
	st, _ := d.AtomicallyClassified(f)
	return st
}

// AtomicallyClassified is Atomically plus conflict attribution: when the
// attempt ends in AbortConflict, the second result reports whether the
// engine classified the conflict as a stripe-alias (false) conflict — its
// commit's lock phase met a stripe held right now on behalf of a Var the
// attempt never touched — rather than a true data conflict: a Var it read is
// locked by a writer or carries a stamp newer than its snapshot, or the
// holder its lock phase met is writing a Var it read or writes. It is always
// false for the other statuses. Retry policies treat both kinds the same
// (both are transient); the split exists for telemetry, so tuning can
// distinguish contention that more stripes would cure from contention that
// is real.
func (d *Domain) AtomicallyClassified(f func(tx *Tx)) (Status, bool) {
	st, alias, _ := d.AtomicallyHelping(0, f)
	return st, alias
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

// AtomicallyHelping is AtomicallyClassified with a helping budget: the
// three-path template's middle tier. A transaction run with helpBudget > 0
// does not treat an undecided MultiCAS descriptor on a written Var as an
// obstacle to kill (the writers' rule, varHead.kill) — at commit, before
// taking any stripe lock, it drives up to helpBudget such descriptors to
// decision via their own lock-free protocol, then locks, validates, and
// publishes as usual. Budget exhausted mid-pass aborts the attempt explicitly with code
// HelpExhausted, leaving the remaining descriptors unharmed. The third
// result reports how many descriptors this attempt helped to decision
// (counted even when the attempt subsequently aborts: decisions are real,
// externally visible progress). helpBudget <= 0 is exactly
// AtomicallyClassified.
func (d *Domain) AtomicallyHelping(helpBudget int, f func(tx *Tx)) (Status, bool, int) {
	return d.atomically(helpBudget, false, f)
}

// AtomicallyDeferring is AtomicallyClassified for the fast level of a
// three-path site: a budget-0 transaction that, at commit, aborts explicitly
// (code HelpExhausted) when an undecided MultiCAS descriptor sits on any
// written Var — instead of killing it, the two-path kill-paid-by-commit
// rule. The abort leaves the descriptor alive for the helping middle tier
// below (speculate.Core.DefersAt derives when this variant applies).
// Descriptors that land on written Vars after the commit-time check are
// still killed under the stripe lock, the unconditional backstop.
func (d *Domain) AtomicallyDeferring(f func(tx *Tx)) (Status, bool) {
	st, alias, _ := d.atomically(0, true, f)
	return st, alias
}

func (d *Domain) atomically(helpBudget int, deferPending bool, f func(tx *Tx)) (Status, bool, int) {
	tx := txPool.Get().(*Tx)
	tx.d, tx.t, tx.rv = d, d.table(), d.clock.Load()
	tx.readCap, tx.writeCap = d.caps()
	tx.helpBudget, tx.deferPending = helpBudget, deferPending
	// A foreign panic out of f unwinds past the recycle: that Tx is dropped.
	status := d.attempt(tx, f)
	alias, helped := status == AbortConflict && tx.alias, tx.helped
	tx.recycle()
	switch status {
	case Committed:
		d.commits.Add(1)
	case AbortConflict:
		d.conflicts.Add(1)
		if alias {
			d.falseConflicts.Add(1)
		}
	case AbortCapacity:
		d.capacity.Add(1)
	case AbortExplicit:
		d.explicit.Add(1)
	}
	return status, alias, helped
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

// commit publishes the write log with the TL2 protocol: lock the written
// stripes in ascending stripe order (aborting, never spinning, on a busy
// stripe — deadlock freedom against other committers and MultiCAS
// decisions), set every written Var's lock bit, draw a new commit timestamp,
// validate the read log, apply the redo log — kill the Var's claim, store
// its value word, stamp and so unlock it with the timestamp, Var by Var —
// and release the stripes. Read-only
// transactions commit without any locking or validation at all — every read
// was already validated against the begin snapshot, so the transaction
// serializes there — mirroring the cheapness of read-only HTM commits.
func (tx *Tx) commit() Status {
	if len(tx.writeLog) == 0 {
		return Committed
	}
	d := tx.d

	// Helping pass (middle path): a budgeted transaction drives undecided
	// MultiCAS descriptors claiming its written Vars to decision before
	// taking any stripe lock — a decision acquires its own stripes with a
	// spinning protocol, so helping while holding locks could deadlock
	// against it. Descriptors that land on our Vars after this pass are
	// still killed under the stripe lock and lock bit, the historical
	// kill-paid-by-commit backstop; the pass just makes the common
	// encounter cooperative instead of destructive. Budget 0 skips the
	// pass entirely on the kill-semantics fast path; a deferring attempt
	// (AtomicallyDeferring, budget 0) runs the pass only to detect a
	// pending descriptor and abort without harming it.
	if tx.helpBudget > 0 || tx.deferPending {
		for i := range tx.writeLog {
			h := tx.writeLog[i].h
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

	// Lock phase: take the written stripes, ascending (the one global order
	// every spinning acquirer follows); on a busy stripe free those already
	// taken and abort. The abort is classified from the very owner observed:
	// a re-read could find the holder gone.
	recs := tx.writeRecs()
	perturb()
	for i := range recs {
		s := &tx.t.stripes[recs[i].idx]
		for !s.word.CompareAndSwap(0, recs[i].varID) {
			if owner := s.word.Load(); owner != 0 {
				tx.alias = tx.heldByAlias(owner)
				unlock(tx.t, recs[:i])
				return AbortConflict
			}
		}
	}
	// Lock-bit pass: from here on every reader of a written Var waits or
	// aborts. It comes before the timestamp is drawn — a reader whose
	// snapshot covers our version must not find one of our Vars still
	// looking old — and before any value moves.
	for i := range tx.writeLog {
		tx.writeLog[i].h.lockVer()
	}

	perturb()
	wv := d.clock.Add(1)
	perturb()
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
				for i := range tx.writeLog {
					tx.writeLog[i].h.unlockVer()
				}
				unlock(tx.t, recs)
				return AbortConflict
			}
		}
	}

	// Apply the redo log, stamping as we go, and release the stripes. The
	// commit is certain from here, so the kills are paid for.
	perturb()
	for i := range tx.writeLog {
		e := &tx.writeLog[i]
		e.h.kill()
		e.h.storeP(e.p)
		e.h.ver.Store(wv)
	}
	unlock(tx.t, recs)
	return Committed
}

// unlock frees the given locked stripe records.
func unlock(t *stripeTable, recs []stripeRec) {
	for i := range recs {
		t.stripes[recs[i].idx].release()
	}
}

// byIdx orders stripe records by stripe index, the lock order.
func byIdx(a, b stripeRec) int { return cmp.Compare(a.idx, b.idx) }

// writeRecs returns (in tx's scratch) one record per distinct stripe the
// write log touches, sorted ascending.
func (tx *Tx) writeRecs() []stripeRec {
	t := tx.t
	recs := tx.lockRecs
	seen := slices.Grow(tx.lockSet[:0], t.words)[:t.words]
	clear(seen)
	for i := range tx.writeLog {
		id := tx.writeLog[i].h.id
		idx := t.indexOf(id)
		w, b := idx>>6, uint64(1)<<(idx&63)
		if seen[w]&b != 0 {
			continue
		}
		seen[w] |= b
		recs = append(recs, stripeRec{idx: idx, varID: id})
	}
	slices.SortFunc(recs, byIdx)
	tx.lockRecs, tx.lockSet = recs, seen
	return recs
}

// lockVar takes the stripe of h's Var on the Var's own behalf — the mutex a
// single-Var direct writer (Store, CAS, Add) holds — and returns it.
func (h *varHead) lockVar() *stripe {
	t := h.d.table()
	s := &t.stripes[t.indexOf(h.id)]
	s.acquire(h.id)
	return s
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
// another domain has writers that lock that domain's stripes and stamps that
// mean that domain's clock: a transaction that logged it would validate and
// publish against neither. It is checked where a Var enters the read log or
// the write log; d is on the line the access is about to touch anyway.
func (tx *Tx) own(h *varHead) {
	if h.d != tx.d {
		panic("htm: transaction Vars span domains")
	}
}

// idxSlot is one slot of the write index, an open-addressed table from a
// written Var's id to its position in the write log. Ids start at 1, so the
// zero slot is an empty one.
type idxSlot struct {
	id  uint64
	pos int
}

// idxMinLen is the write index's first size: a power of two, as every later
// one.
const idxMinLen = 16

// idxHome is id's home slot in a write index of n slots (Fibonacci hashing,
// like the stripe hash; n a power of two, at least 2).
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
// under v's stripe and lock bit.
func Store[T comparable](tx *Tx, v *Var[T], x T) {
	if tx == nil {
		p := v.encode(x)
		v.write(v.lockVar(), p)
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
// transaction it is a linearizable compare-and-swap: under v's stripe no one
// else stores the value word, so the comparison needs no window. A failed
// direct CAS neither locks nor stamps the Var: the logical value did not
// change, so overlapping transactions have nothing to observe.
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
	s := v.lockVar()
	if v.decode(v.loadP()) != old {
		s.release()
		return false
	}
	v.write(s, v.encode(new))
	return true
}

// Add atomically adds delta to an integer Var and returns the new value.
func Add(tx *Tx, v *Var[uint64], delta uint64) uint64 {
	if tx != nil {
		x := Load(tx, v) + delta
		Store(tx, v, x)
		return x
	}
	s := v.lockVar()
	x := v.decode(v.loadP()) + delta
	v.write(s, v.encode(x))
	return x
}
