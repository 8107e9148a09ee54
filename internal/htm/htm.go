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
// style: a global commit clock per Domain, a commit stamp on every Var (the
// clock value of the last write to that Var), and a fixed array of striped
// ownership records (orecs) — stripe locks hashed by Var identity, each
// padded to its own cache line. Values live in Var[T] cells. A transaction
// snapshots the commit clock at begin; every transactional read takes the
// Var's value and stamp inside a window in which the Var's stripe stayed
// unlocked and unchanged, and aborts if the stamp is newer than the
// snapshot. Transactional writes are buffered and applied at commit while
// holding only the written stripes' locks, acquired in ascending stripe
// order so commits stay deadlock-free; commit re-checks every stamp the
// attempt read. Non-transactional writes lock only their own stripe, and
// non-transactional reads validate against their stripe word, so no code
// path can observe a half-applied commit. Conflicts are detected per
// location, which is what lets disjoint-footprint operations — different
// hash buckets, distant skiplist keys, separate BST subtrees — commit
// concurrently, the way they do under real per-cache-line HTM conflict
// detection.
//
// Versions are per Var; a stripe is a lock and a window. Two Vars that hash
// to the same stripe exclude each other's writers while one is in flight,
// and a reader that meets a stripe held on behalf of a Var it never touched
// aborts on a stripe alias (a false conflict) — but a completed write to an
// aliased Var aborts nobody: only a stamp newer than the snapshot on a Var
// the transaction actually read is a conflict, which is the rule PTO's
// prefix transactions are designed around (§2, §4.6). The engine classifies
// each conflict abort as true or alias from the stamp or from the owner id
// in the lock word it met, so telemetry can report the false-conflict rate;
// see AtomicallyClassified.
//
// The one property of real HTM this emulation cannot preserve is progress of
// the combined system: the commit path holds stripe locks, so a preempted
// committer can delay others, whereas real RTM commits in a bounded number of
// hardware steps. The deterministic machine simulator in internal/sim models
// true requester-wins HTM and carries the paper's progress and performance
// claims; this package carries correctness of the PTO code structure under
// real Go concurrency.
package htm

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// DefaultStripes is the default ownership-record table size. 256 stripes
// keep the whole table at 16KB (one cache line each) while making accidental
// aliasing of a handful of hot Vars unlikely. The count is a per-Domain
// option (NewDomainStripes): fewer stripes mean coarser locks — a writer in
// flight is met by more readers and committers of unrelated Vars — and the
// 4-stripe configuration is the aliasing stress fixture.
const DefaultStripes = 256

// stripe is one ownership record: the lock every writer of a Var that hashes
// to it holds while it writes, and the sequence word a reader's window is
// judged by — padded out to its own cache line so stripe traffic does not
// false-share. It carries no version anyone compares against a snapshot:
// those are per Var (varHead.ver).
type stripe struct {
	// word, unlocked, packs seq<<1, where seq is the commit-clock value of
	// the last write released through the stripe: a reader that finds the
	// same unlocked word on both sides of its reads knows no writer of any
	// Var of the stripe ran in between. Locked it packs ownerVarID<<1 | 1,
	// naming the Var on whose behalf a writer (a committing transaction, a
	// direct store/CAS/Add, or a deciding MultiCAS) holds the stripe, which
	// is what lets an aborting reader tell a writer of its own data from a
	// stripe alias.
	word atomic.Uint64
	_    [56]byte
}

// stripeTable is a domain's ownership-record table: a power-of-two count of
// stripes plus the derived hash shift and bitmap width. It is built once per
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

// indexOf hashes a Var id onto a stripe index (Fibonacci hashing; the ids
// are small sequential integers, so multiplicative scrambling is what
// spreads consecutively allocated Vars across the table). For the default
// 256-stripe table the shift is 56, reproducing the historical fixed hash
// bit for bit.
func (t *stripeTable) indexOf(id uint64) uint32 {
	return uint32((id * 0x9E3779B97F4A7C15) >> t.shift)
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

// NewDomainStripes is NewDomain with an explicit ownership-record stripe
// count: a power of two (panics otherwise), 0 selecting DefaultStripes. It is
// the one place a stripe count is chosen; the table is fixed for the domain's
// life. Fewer stripes coarsen the locks — more transactions meet a stripe
// held for an unrelated Var (false conflicts), same correctness, and
// completed writes still conflict per Var only — which is the knob the
// aliasing stress tests turn.
func NewDomainStripes(readCap, writeCap, stripes int) *Domain {
	d := NewDomain(readCap, writeCap)
	if stripes == 0 {
		stripes = DefaultStripes
	}
	d.tbl.Store(newStripeTable(stripes))
	return d
}

// Stripes returns the domain's ownership-record stripe count.
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

// acquire spins until it holds the stripe on behalf of Var owner, returning
// the stripe's pre-lock word (even: seq<<1). Only single-stripe writers and
// the MultiCAS decision use it; transactional commits never spin on a stripe
// (they abort instead), which is what keeps the spin here short.
func (s *stripe) acquire(owner uint64) uint64 {
	for {
		w := s.word.Load()
		if w&1 == 0 && s.word.CompareAndSwap(w, owner<<1|1) {
			return w
		}
		runtime.Gosched()
	}
}

// cell is the immutable box a Var points at. desc == nil means the Var holds
// the plain value val; otherwise the Var is claimed by an in-flight MultiCAS
// and val is the (already validated) old value, which remains the logical
// value until the operation decides. Mirrors the box of internal/mcas.
type cell[T comparable] struct {
	val  T
	desc *MultiDesc
}

// varIDs issues Var identities: the global order MultiCAS claims follow and
// the input of the stripe hash.
var varIDs atomic.Uint64

// Var is a transactional cell holding a value of comparable type T. Vars must
// be created by Init (or NewVar) so they are bound to a Domain; the zero
// Var is not usable. All access goes through Load, Store, CAS, and Add, which
// take an optional transaction: a nil *Tx selects the direct, non-speculative
// path used by fallback code. Vars additionally participate in MultiCAS, the
// lock-free multi-Var publication primitive of the composition layer.
type Var[T comparable] struct {
	varHead
	p atomic.Pointer[cell[T]]
}

// varHead is the untyped head of every Var[T], and what a transaction's read
// log points at: the Var's domain, its identity, and its commit stamp.
type varHead struct {
	d  *Domain
	id uint64
	// ver is the commit-clock value of the last write to this Var (0: never
	// written since Init). Every writer stores it while holding the Var's
	// stripe and before releasing it — Tx.commit's install, a direct Store,
	// a successful CAS or Add, the winning MultiCAS decision for each write
	// leg — so inside an unlocked-and-unchanged stripe window (value, ver)
	// is a consistent pair, and ver only ever grows.
	ver atomic.Uint64
}

// publish stamps the Var with commit version wv and releases its held
// stripe s there — the tail of every single-Var direct write.
func (h *varHead) publish(s *stripe, wv uint64) {
	h.ver.Store(wv)
	perturb()
	s.word.Store(wv << 1)
}

// Init binds an embedded Var to domain d and sets its initial value. It must
// be called exactly once, before any concurrent access; it is intended for
// initializing Var fields of freshly allocated nodes. Init assigns the Var
// its identity — its MultiCAS ordering id, from which the domain's table
// hashes the Var's stripe on every access (one multiply and shift).
func (v *Var[T]) Init(d *Domain, init T) {
	v.d = d
	v.id = varIDs.Add(1)
	v.p.Store(&cell[T]{val: init})
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

// stripeRec is one stripe a committing transaction writes through: its
// index in the domain's table, the id of the first Var written there — the
// owner it locks the stripe under — and the stripe's pre-lock word, for
// rollback.
type stripeRec struct {
	idx   uint32
	varID uint64
	prev  uint64
}

// Tx is an in-flight transaction. A Tx is only valid inside the function
// passed to Atomically and must not be retained, shared between goroutines,
// or used after that function returns: attempts take their Tx from a pool
// and recycle it when they end, so its sets, log and commit scratch keep
// their capacity and a steady-state attempt allocates nothing but the cells
// it publishes. Load, Store and Abort through a recycled Tx panic (live).
type Tx struct {
	d  *Domain
	t  *stripeTable // the domain's table; nil once the attempt has returned (live)
	rv uint64       // commit-clock snapshot taken at begin (the TL2 read version)

	reads    int
	readSet  []uint64   // stripes with at least one transactional read
	readRecs []uint32   // index of each read stripe, first-touch order
	readLog  []*varHead // one entry per transactional read: the stamps commit re-checks

	// writeLog is the redo log: insertion-ordered so commit write-back
	// follows program order of first-writes. writeIdx maps a written Var's
	// id to its log position; written is a 64-bit filter over those ids
	// (bit id&63), so a Load of a Var the attempt has not written — every
	// step of a search walk — never touches the map (staged).
	writeLog []writeEntry
	writeIdx map[uint64]int
	written  uint64

	// lockRecs and lockSet are commit's scratch: the records and the bitmap
	// of the written stripes (writeRecs).
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
	// written cells to decision at commit — instead of killing them or
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
// a zero Tx but for the capacity of its slices and map.
var txPool = sync.Pool{New: func() any { return &Tx{writeIdx: make(map[uint64]int)} }}

// recycle returns tx to the pool as a zero Tx with capacity: cleared, so it
// pins no cell, Var or domain (the stripe records hold indices, not
// pointers, and need no clearing), and detached (live).
func (tx *Tx) recycle() {
	clear(tx.readLog)
	clear(tx.writeLog)
	clear(tx.writeIdx)
	*tx = Tx{
		readSet:  tx.readSet,
		readRecs: tx.readRecs[:0],
		readLog:  tx.readLog[:0],
		writeLog: tx.writeLog[:0],
		writeIdx: tx.writeIdx,
		lockRecs: tx.lockRecs[:0],
		lockSet:  tx.lockSet,
	}
	txPool.Put(tx)
}

// live returns the attempt's stripe table, panicking on a Tx whose attempt
// has already returned.
func (tx *Tx) live() *stripeTable {
	if tx.t == nil {
		panic("htm: Tx used after its attempt returned")
	}
	return tx.t
}

// zeroWords returns buf resized to n zero words, reusing its capacity.
func zeroWords(buf []uint64, n int) []uint64 {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// writeTarget is the untyped face of a written Var[T] in the redo log:
// install publishes c, the *cell[T] staged for the Var, under the Var's
// stripe lock (storeLocked) and stamps the Var with commit version wv;
// pendingDesc returns the undecided MultiCAS
// descriptor claiming the Var's cell, if any, for commit's helping pass.
type writeTarget interface {
	install(c any, wv uint64)
	pendingDesc() *MultiDesc
}

// writeEntry is one redo-log record: the written Var and the cell commit
// will install for it, allocated by the first Store to the Var and private
// to the attempt until then (write-after-write mutates it, read-own-write
// reads it): a write costs one allocation, the box the Var must point at.
type writeEntry struct {
	v     writeTarget
	varID uint64
	cell  any // *cell[T]
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

// heldByAlias classifies the conflict of meeting a stripe held by someone
// else, from the lock word observed: true when the holder works on behalf of
// a Var the attempt has neither read nor written, i.e. the abort is due to
// stripe aliasing rather than to a writer of the attempt's own data. A holder
// names one Var per stripe, so a writer of several aliased Vars can still
// pass for an alias; a completed write never does — that is judged by the
// Var's stamp. It walks the read log, which only an abort path can afford.
func (tx *Tx) heldByAlias(word uint64) bool {
	owner := word >> 1
	if _, ok := tx.writeIdx[owner]; ok {
		return false
	}
	for _, h := range tx.readLog {
		if h.id == owner {
			return false
		}
	}
	return true
}

// recordRead logs a validated read of h through stripe idx: the Var always
// (commit re-checks its stamp), the stripe on first touch only (commit
// checks it once, however many Vars were read through it).
func (tx *Tx) recordRead(h *varHead, idx uint32) {
	tx.readLog = append(tx.readLog, h)
	w, b := idx>>6, uint64(1)<<(idx&63)
	if tx.readSet[w]&b != 0 {
		return
	}
	tx.readSet[w] |= b
	tx.readRecs = append(tx.readRecs, idx)
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
// engine classified the conflict as a stripe-alias (false) conflict — the
// attempt met a stripe held right now on behalf of a Var it never touched —
// rather than a true data conflict: a Var it read carries a stamp newer than
// its snapshot, or the holder it met is writing a Var it read or writes. It
// is always false for the other statuses. Retry policies treat both kinds
// the same (both are transient); the split exists for telemetry, so tuning
// can distinguish contention that more stripes would cure from contention
// that is real.
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
// does not treat an undecided MultiCAS descriptor on a written cell as an
// obstacle to kill (storeLocked's rule) — at commit, before taking any
// stripe lock, it drives up to helpBudget such descriptors to decision via
// their own lock-free protocol, then locks, validates, and publishes as
// usual. Budget exhausted mid-pass aborts the attempt explicitly with code
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
// written cell — instead of killing it, the two-path kill-paid-by-commit
// rule. The abort leaves the descriptor alive for the helping middle tier
// below (speculate.Core.DefersAt derives when this variant applies).
// Descriptors that land on written cells after the commit-time check are
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
	tx.readSet = zeroWords(tx.readSet, tx.t.words)
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
// decisions), draw a new commit timestamp, validate the read set, apply the
// log, stamping each written Var with the timestamp, and release the
// stripes. Read-only transactions commit without any locking or validation
// at all — every read was already validated against the begin snapshot, so
// the transaction serializes there — mirroring the cheapness of read-only
// HTM commits.
func (tx *Tx) commit() Status {
	if len(tx.writeLog) == 0 {
		return Committed
	}
	d := tx.d

	// Helping pass (middle path): a budgeted transaction drives undecided
	// MultiCAS descriptors claiming its written cells to decision before
	// taking any stripe lock — a decision acquires its own stripes with a
	// spinning protocol, so helping while holding locks could deadlock
	// against it. Descriptors that land on our cells after this pass are
	// still killed by storeLocked under the stripe lock, the historical
	// kill-paid-by-commit backstop; the pass just makes the common
	// encounter cooperative instead of destructive. Budget 0 skips the
	// pass entirely on the kill-semantics fast path; a deferring attempt
	// (AtomicallyDeferring, budget 0) runs the pass only to detect a
	// pending descriptor and abort without harming it.
	if tx.helpBudget > 0 || tx.deferPending {
		for i := range tx.writeLog {
			e := &tx.writeLog[i]
			for {
				m := e.v.pendingDesc()
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
	// every spinning acquirer follows); on a busy stripe restore those
	// already taken and abort. The abort is classified from the very word
	// observed locked: a re-read could find the holder gone.
	recs, wset := tx.writeRecs()
	perturb()
	for i := range recs {
		s := &tx.t.stripes[recs[i].idx]
		w := s.word.Load()
		for w&1 == 0 && !s.word.CompareAndSwap(w, recs[i].varID<<1|1) {
			w = s.word.Load()
		}
		if w&1 != 0 {
			return tx.fail(recs[:i], tx.heldByAlias(w))
		}
		recs[i].prev = w
	}

	perturb()
	wv := d.clock.Add(1)
	perturb()
	// Validate the read set unless no one committed since our snapshot (in
	// which case every read is trivially still current). First no read
	// stripe may be held by someone else: a holder may have drawn an earlier
	// timestamp than ours and not have stamped yet. Then — every writer that
	// released before that look having stamped — no Var we read may carry a
	// stamp newer than the snapshot. A writer that takes a stripe after the
	// look draws a later timestamp and serializes behind us.
	if wv != tx.rv+1 {
		for _, idx := range tx.readRecs {
			if wset[idx>>6]&(1<<(idx&63)) != 0 {
				continue // ours
			}
			if w := tx.t.stripes[idx].word.Load(); w&1 != 0 {
				return tx.fail(recs, tx.heldByAlias(w))
			}
		}
		for _, h := range tx.readLog {
			if h.ver.Load() > tx.rv {
				return tx.fail(recs, false)
			}
		}
	}

	// Apply the redo log, stamping as we go, and release the stripes.
	perturb()
	for i := range tx.writeLog {
		e := &tx.writeLog[i]
		e.v.install(e.cell, wv)
	}
	perturb()
	tx.unlock(recs, wv<<1)
	return Committed
}

// fail ends a commit in AbortConflict: it records the classification and
// puts the stripes locked so far back as found.
func (tx *Tx) fail(locked []stripeRec, alias bool) Status {
	tx.alias = alias
	tx.unlock(locked, 0)
	return AbortConflict
}

// unlock releases the given locked stripe records: to word (the new
// sequence) when non-zero, or back to each stripe's pre-lock word on abort
// (an aborted commit wrote nothing).
func (tx *Tx) unlock(recs []stripeRec, word uint64) {
	for i := range recs {
		w := word
		if w == 0 {
			w = recs[i].prev
		}
		tx.t.stripes[recs[i].idx].word.Store(w)
	}
}

// byIdx orders stripe records by stripe index, the lock order.
func byIdx(a, b stripeRec) int { return cmp.Compare(a.idx, b.idx) }

// writeRecs returns (in tx's scratch) one record per distinct stripe the
// write log touches, sorted ascending, and the bitmap of those stripes.
func (tx *Tx) writeRecs() ([]stripeRec, []uint64) {
	t := tx.t
	recs, seen := tx.lockRecs, zeroWords(tx.lockSet, t.words)
	for i := range tx.writeLog {
		id := tx.writeLog[i].varID
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
	return recs, seen
}

// stripeOf returns the stripe Var id hashes to.
func (d *Domain) stripeOf(id uint64) *stripe {
	t := d.table()
	return &t.stripes[t.indexOf(id)]
}

// lockVar takes the stripe of Var id on the Var's own behalf — the lock a
// single-Var direct writer (Store, CAS, Add) holds — and returns it with its
// pre-lock word.
func (d *Domain) lockVar(id uint64) (*stripe, uint64) {
	s := d.stripeOf(id)
	return s, s.acquire(id)
}

// loadWaits is how many times a transactional Load looks again at a stripe
// it found held, or found changed under its reads, before it aborts. A reader
// holds no lock, so waiting out a writer's few stores cannot deadlock; that
// writers hold a stripe at all is an artefact of the emulation, not of HTM.
const loadWaits = 16

// Load reads v. With a non-nil tx it is a transactional read: it returns the
// transaction's own pending write if any, reads v's value and commit stamp
// inside a window in which v's stripe stayed unlocked and unchanged
// (aborting if the stripe stays held, or if v has been written since the
// transaction began), and counts against the read capacity. With tx == nil
// it is a direct read that never observes a partially applied commit (it
// retries across the stripe's writer windows).
func Load[T comparable](tx *Tx, v *Var[T]) T {
	if tx != nil {
		t := tx.live()
		if c := staged(tx, v); c != nil {
			return c.val
		}
		tx.reads++
		if tx.reads > tx.readCap {
			tx.abort(AbortCapacity)
		}
		idx := t.indexOf(v.id)
		s := &t.stripes[idx]
		for wait := 0; ; wait++ {
			w := s.word.Load()
			if w&1 == 0 {
				x := loadResolved(v)
				if v.ver.Load() > tx.rv {
					// A true conflict — and stamps only grow, so it is one
					// whatever the window did.
					tx.abort(AbortConflict)
				}
				w2 := s.word.Load()
				if w2 == w {
					tx.recordRead(&v.varHead, idx)
					return x
				}
				w = w2 // a writer of the stripe passed, or is passing, under our reads
			}
			if wait >= loadWaits {
				// Still held: whose writer is it? (Or forever changing: not
				// v's writers, its stamp stands.)
				tx.alias = w&1 == 0 || w>>1 != v.id && tx.heldByAlias(w)
				tx.abort(AbortConflict)
			}
			if w&1 != 0 {
				runtime.Gosched()
			}
		}
	}
	s := v.d.stripeOf(v.id)
	for {
		pre := s.word.Load()
		if pre&1 != 0 {
			runtime.Gosched()
			continue
		}
		x := loadResolved(v)
		if s.word.Load() == pre {
			return x
		}
	}
}

// loadResolved reads v's cell, finishing the release phase of any completed
// MultiCAS it encounters. An undecided or failed descriptor is transparent:
// the claimed cell still carries the logical (old) value, and if the
// operation later succeeds its decision holds the Var's stripe and stamps
// its write legs, which the caller's window or stamp check catches.
func loadResolved[T comparable](v *Var[T]) T {
	for {
		c := v.p.Load()
		if c.desc != nil && c.desc.status.Load() == mwSucceeded {
			c.desc.releaseAll()
			continue
		}
		return c.val
	}
}

// storeLocked makes the plain cell nc v's cell. It must be called with v's
// stripe lock held: an undecided MultiCAS descriptor found on the cell is
// killed (its decision must acquire this stripe too, so the status CAS
// cannot race with a commit), and a decided one — whose stripe bump
// necessarily preceded our lock acquisition — is released before we
// overwrite.
func storeLocked[T comparable](v *Var[T], nc *cell[T]) {
	for {
		c := v.p.Load()
		if c.desc != nil {
			c.desc.status.CompareAndSwap(mwUndecided, mwFailed)
			c.desc.releaseAll()
			continue
		}
		if v.p.CompareAndSwap(c, nc) {
			return
		}
	}
}

func (v *Var[T]) install(c any, wv uint64) {
	storeLocked(v, c.(*cell[T]))
	v.ver.Store(wv)
}

func (v *Var[T]) pendingDesc() *MultiDesc {
	if c := v.p.Load(); c.desc != nil && c.desc.status.Load() == mwUndecided {
		return c.desc
	}
	return nil
}

// staged returns the cell tx has staged for v, or nil if it has not written
// v — without a map access unless v's filter bit is set.
func staged[T comparable](tx *Tx, v *Var[T]) *cell[T] {
	if tx.written&(1<<(v.id&63)) != 0 {
		if i, ok := tx.writeIdx[v.id]; ok {
			return tx.writeLog[i].cell.(*cell[T])
		}
	}
	return nil
}

// Store writes x to v. With a non-nil tx the write is buffered and becomes
// visible atomically at commit; with tx == nil it is applied immediately
// under v's stripe lock.
func Store[T comparable](tx *Tx, v *Var[T], x T) {
	if tx != nil {
		tx.live()
		if c := staged(tx, v); c != nil {
			c.val = x
			return
		}
		if len(tx.writeLog) >= tx.writeCap {
			tx.abort(AbortCapacity)
		}
		tx.written |= 1 << (v.id & 63)
		tx.writeIdx[v.id] = len(tx.writeLog)
		tx.writeLog = append(tx.writeLog, writeEntry{v: v, varID: v.id, cell: &cell[T]{val: x}})
		return
	}
	d := v.d
	s, _ := d.lockVar(v.id)
	storeLocked(v, &cell[T]{val: x})
	v.publish(s, d.clock.Add(1))
}

// CAS atomically compares v against old and, if equal, replaces it with new,
// reporting whether the swap happened. Inside a transaction this degenerates
// to a load, a comparison, and a buffered store — exactly the CAS-to-branch
// strength reduction of §2.3 — at no extra synchronization cost. Outside a
// transaction it is a linearizable compare-and-swap. A failed direct CAS
// neither stamps the Var nor advances the stripe: the logical value did not
// change, so overlapping transactions have nothing to observe.
//
// Interplay with MultiCAS descriptors refines the kill-paid-by-commit rule:
// a direct CAS that finds an undecided descriptor on its cell kills it only
// when the CAS is itself going to succeed — the cell's logical value matches
// old, so the swap proceeds and its commit pays for the kill. When the
// logical value already disagrees, the CAS fails WITHOUT killing: it aborts
// its own operation and defers to the in-flight descriptor instead of
// spinning on (or destroying) it. Every structure's direct CAS leans on
// this: a fallback retry loop that lost anyway re-reads and tries again, and
// no unpaid kill ever degrades a concurrent composed operation's progress.
func CAS[T comparable](tx *Tx, v *Var[T], old, new T) bool {
	if tx != nil {
		if Load(tx, v) != old {
			return false
		}
		Store(tx, v, new)
		return true
	}
	d := v.d
	s, pre := d.lockVar(v.id)
	ok := false
	for {
		c := v.p.Load()
		if c.desc != nil {
			if c.desc.status.Load() != mwUndecided {
				c.desc.releaseAll()
				continue
			}
			if c.val != old {
				// Undecided claim and the logical value already disagrees:
				// fail without killing (abort-and-defer). The descriptor's
				// outcome cannot change our answer — its decision needs this
				// stripe, which we hold — and a kill here would be paid for
				// by nothing.
				break
			}
			c.desc.status.CompareAndSwap(mwUndecided, mwFailed)
			c.desc.releaseAll()
			continue
		}
		if c.val != old {
			break
		}
		if v.p.CompareAndSwap(c, &cell[T]{val: new}) {
			ok = true
			break
		}
	}
	if ok {
		v.publish(s, d.clock.Add(1))
	} else {
		// The logical value did not change; overlapping readers have
		// nothing to see.
		s.word.Store(pre)
	}
	return ok
}

// Add atomically adds delta to an integer Var and returns the new value.
func Add(tx *Tx, v *Var[uint64], delta uint64) uint64 {
	if tx != nil {
		x := Load(tx, v) + delta
		Store(tx, v, x)
		return x
	}
	d := v.d
	s, _ := d.lockVar(v.id)
	var x uint64
	for {
		c := v.p.Load()
		if c.desc != nil {
			c.desc.status.CompareAndSwap(mwUndecided, mwFailed)
			c.desc.releaseAll()
			continue
		}
		x = c.val + delta
		if v.p.CompareAndSwap(c, &cell[uint64]{val: x}) {
			break
		}
	}
	v.publish(s, d.clock.Add(1))
	return x
}
