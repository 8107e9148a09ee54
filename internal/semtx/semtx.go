// Package semtx is the open multi-op transaction layer: user-written bodies
// issuing any number of Get/Put/Delete/Enqueue/Dequeue/Push/PopMin calls
// against named structures of a txnops.Registry, committed atomically with
// STO-style *semantic* validation.
//
// The composed operations of internal/txn and internal/simtxn are a fixed
// menu (Move, Transfer, ...), each one a single atomic body. An open
// transaction cannot run that way: the body is arbitrary user code, its
// reads happen over time, and holding one word-level footprint open across
// the whole body would make every bucket-word or root-word touch a conflict
// for the body's entire lifetime. semtx instead splits the transaction into
// two phases (the Proust/STO recipe, see PAPERS.md):
//
//   - Execution: each structure read runs as its own small composed
//     operation (individually atomic, mutually *inconsistent*), and what it
//     observed is recorded as a semantic item — a key's presence or absence
//     for a set, the front value (or emptiness) for a queue, the exact
//     minimum (or emptiness) for a PQ. Writes are buffered in the Tx, never
//     published during execution; reads are answered from the buffer first,
//     so a body sees its own effects.
//
//   - Commit: ONE composed operation revalidates every recorded item and,
//     only if all still hold, applies the buffered writes through the
//     substrate's Tx* adapters — one HTM prefix transaction when the
//     footprint fits, one N-word MultiCAS publication otherwise, with all
//     of internal/txn's mechanics (kill-paid-by-commit, helping, abort
//     classification) inherited for free. If any item fails, the commit
//     stages no writes (it completes as a cheap validated read-only
//     operation), the attempt counts as a semantic retry
//     ("conflict_semantic"), and the body re-runs from scratch.
//
// Because every item is revalidated together in one atomic step, a
// committed transaction is linearizable at its commit operation even though
// its execution-time reads were not mutually consistent; a body that
// observed a torn view simply fails validation and re-runs. And because the
// items are semantic rather than word-level, commits that would collide on
// a word — two inserts into one hash bucket, say — validate and commit
// concurrently save for the short apply window, which is what ablation A9
// measures against word-level validation.
//
// The same generic code runs on both substrates: Manager is parameterized
// over the txnops.Ctx capability interfaces, so a runtime manager
// (internal/txn) and a simulated one (internal/simtxn) differ only in the
// Exec and Registry handed to New.
package semtx

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/txnops"
)

// Violation is the error returned when a body asks for something the commit
// protocol cannot make atomic: a second structural Dequeue on one queue, or
// a second structural PopMin on one PQ, inside one transaction. (The next
// front/min is unknowable until the first pop publishes — the same reason
// mound.TxPopMin is once-per-transaction.) Violations are programming
// errors of the body, surfaced as errors from Run; no commit happens.
type Violation struct {
	Struct string // structure name
	Op     string // the offending operation
	Reason string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("semtx: %s on %q: %s", v.Op, v.Struct, v.Reason)
}

// Manager runs open transactions over one registry on one substrate.
type Manager[C txnops.Ctx, K cmp.Ordered] struct {
	x     txnops.Exec[C]
	reg   *txnops.Registry[C, K]
	tel   *telemetry.Open
	stamp func(C) uint64

	// pool recycles this manager's Tx values across transactions (and
	// goroutines). It is the manager's own because a pooled Tx keeps the
	// structures it has resolved from reg.
	pool sync.Pool
}

// New returns a manager running bodies through x against the structures of
// reg. internal/txn callers pass the txn.Manager itself; internal/simtxn
// callers pass any bound thread here and the per-thread Bound to RunOn.
func New[C txnops.Ctx, K cmp.Ordered](x txnops.Exec[C], reg *txnops.Registry[C, K]) *Manager[C, K] {
	return &Manager[C, K]{x: x, reg: reg}
}

// WithTelemetry routes the manager's counters to o. Returns m.
func (m *Manager[C, K]) WithTelemetry(o *telemetry.Open) *Manager[C, K] {
	m.tel = o
	return m
}

// WithStamp adds a commit stamp: f runs inside the commit operation of
// every committing transaction and its value is returned from Run as the
// transaction's sequence number. The twin-replay tester stamps through a
// shared clock cell (TxnStamp/SimStamp), which totally orders commits —
// and serializes them on the clock word, so performance runs leave the
// stamp off. Returns m.
func (m *Manager[C, K]) WithStamp(f func(C) uint64) *Manager[C, K] {
	m.stamp = f
	return m
}

// Run executes body as one open transaction on the manager's own Exec,
// re-running it until its semantic items validate at commit. It returns the
// commit stamp (zero without WithStamp) and the body's error, if any — an
// erroring body is abandoned without publishing its buffered writes. A
// *Violation panic from a Tx method is recovered and returned as the error.
func (m *Manager[C, K]) Run(body func(tx *Tx[C, K]) error) (uint64, error) {
	return m.RunOn(m.x, body)
}

// RunOn is Run against an explicit Exec — the hook for the simulated
// substrate, where each machine thread binds its own Exec
// (simtxn.Manager.On) but all threads share one semtx.Manager.
func (m *Manager[C, K]) RunOn(x txnops.Exec[C], body func(tx *Tx[C, K]) error) (seq uint64, err error) {
	tx := m.begin(x)
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(*Violation)
			if !ok {
				panic(r) // a foreign panic unwinds past the recycle: that Tx is dropped
			}
			if m.tel != nil {
				m.tel.UserAborts.Add(1)
			}
			seq, err = 0, v
		}
		tx.recycle()
	}()
	for {
		if err := body(tx); err != nil {
			if m.tel != nil {
				m.tel.UserAborts.Add(1)
			}
			return 0, err
		}
		seq, ok := tx.commit()
		if ok {
			if m.tel != nil {
				m.tel.Txns.Add(1)
				m.tel.OpsPerTxn.Observe(tx.ops)
			}
			return seq, nil
		}
		if m.tel != nil {
			m.tel.SemRetries.Add(1)
		}
		tx.reset()
	}
}

// Tx is one open transaction: the semantic items its current attempt has
// recorded and the writes it has buffered. A Tx is valid only inside the
// body it is passed to and is not safe for concurrent use. It comes from
// its manager's pool and goes back when Run returns, so a retained Tx is
// somebody else's transaction; its methods panic on one (live).
//
// What a Tx keeps between attempts and between transactions is capacity and
// bindings, never contents: its slices and key indexes are emptied (reset),
// and the name → structure bindings it has resolved stay, because a
// registry binding never changes (Add* panics on a duplicate and nothing
// removes). A steady-state transaction so allocates only what its commit
// publishes.
type Tx[C txnops.Ctx, K cmp.Ordered] struct {
	m   *Manager[C, K]
	x   txnops.Exec[C] // nil once the transaction has returned (live)
	ops int

	// Every structure this Tx has resolved, by name; kept for the life of
	// the Tx.
	sets   map[string]*setState[C, K]
	queues map[string]*queueState[C, K]
	pqs    map[string]*pqState[C, K]

	// The structures this attempt has touched, in first-touch order, so
	// validation and apply visit them in the deterministic order the body
	// introduced them.
	setOrder   []*setState[C, K]
	queueOrder []*queueState[C, K]
	pqOrder    []*pqState[C, K]

	// The four bodies a Tx hands to Exec.Atomic, bound once when the Tx is
	// made: the call crosses an interface, so a closure made per probe
	// would be a heap allocation per probe. They take their arguments from
	// the fields below and leave their results there.
	probeSetOp, probeFrontOp, probeMinOp, commitOp func(C)

	probedSet   *setState[C, K] // probeSet: its newest item is the one to fill in
	probedQueue *queueState[C, K]
	probedPQ    *pqState[C, K]
	seq         uint64 // commitBody's results
	semOK       bool
}

// keyItem is the per-key record of a set: the structural presence its first
// touch observed (the semantic item revalidated at commit) and the buffered
// final presence.
type keyItem[K cmp.Ordered] struct {
	key     K
	present bool // what the probe saw
	written bool // the body buffered a final presence
	final   bool // ... of this value
}

type setState[C txnops.Ctx, K cmp.Ordered] struct {
	s       txnops.Set[C, K]
	touched bool         // in setOrder
	items   []keyItem[K] // first-touch order
	index   map[K]int32  // key → position in items
}

type queueState[C txnops.Ctx, K cmp.Ordered] struct {
	q       txnops.Queue[C, K]
	fq      txnops.FrontQueue[C, K]
	touched bool // in queueOrder

	// The head item: one structural front observation (value or emptiness).
	observed bool
	present  bool
	front    K

	popped bool // one structural dequeue is pending for commit
	enq    []K  // buffered enqueues, FIFO
	served int  // prefix of enq consumed by own dequeues (observed-empty mode)
}

type pqState[C txnops.Ctx, K cmp.Ordered] struct {
	p       txnops.PQ[C, K]
	mp      txnops.MinPQ[C, K]
	touched bool // in pqOrder

	// The min item: one structural minimum observation (value or emptiness).
	observed bool
	present  bool
	min      K

	popped bool // one structural pop is pending for commit
	buf    []K  // buffered pushes not yet consumed by own pops

	// Commit-time split of buf around the validated min (see commit).
	prePush  []K
	postPush []K
}

// begin takes a Tx from m's pool, or makes one, and attaches it to x.
func (m *Manager[C, K]) begin(x txnops.Exec[C]) *Tx[C, K] {
	t, _ := m.pool.Get().(*Tx[C, K])
	if t == nil {
		t = &Tx[C, K]{
			m:      m,
			sets:   make(map[string]*setState[C, K]),
			queues: make(map[string]*queueState[C, K]),
			pqs:    make(map[string]*pqState[C, K]),
		}
		t.probeSetOp, t.probeFrontOp, t.probeMinOp, t.commitOp = t.probeSet, t.probeFront, t.probeMin, t.commitBody
	}
	t.x = x
	return t
}

// reset empties t for the body's next run: no ops, no items, no buffered
// writes, no flags, nothing touched. Slices and indexes keep their capacity
// but are cleared, so a pooled Tx pins none of a body's keys (the states the
// order slices and the probe arguments point at are the Tx's own).
func (t *Tx[C, K]) reset() {
	t.ops = 0
	for _, st := range t.setOrder {
		clear(st.index)
		clear(st.items)
		st.items, st.touched = st.items[:0], false
	}
	for _, qs := range t.queueOrder {
		clear(qs.enq)
		*qs = queueState[C, K]{q: qs.q, fq: qs.fq, enq: qs.enq[:0]}
	}
	for _, ps := range t.pqOrder {
		clear(ps.buf)
		clear(ps.prePush)
		clear(ps.postPush)
		*ps = pqState[C, K]{p: ps.p, mp: ps.mp, buf: ps.buf[:0], prePush: ps.prePush[:0], postPush: ps.postPush[:0]}
	}
	t.setOrder, t.queueOrder, t.pqOrder = t.setOrder[:0], t.queueOrder[:0], t.pqOrder[:0]
}

// recycle returns t to its manager's pool, emptied and detached (live).
func (t *Tx[C, K]) recycle() {
	t.reset()
	t.x = nil
	t.m.pool.Put(t)
}

// live panics on a Tx whose transaction has already returned.
func (t *Tx[C, K]) live() {
	if t.x == nil {
		panic("semtx: Tx used after its transaction returned")
	}
}

func (t *Tx[C, K]) set(name string) *setState[C, K] {
	st := t.sets[name]
	if st == nil {
		s := t.m.reg.Set(name)
		if s == nil {
			panic(fmt.Sprintf("semtx: unknown set %q", name))
		}
		st = &setState[C, K]{s: s, index: make(map[K]int32)}
		t.sets[name] = st
	}
	if !st.touched {
		st.touched = true
		t.setOrder = append(t.setOrder, st)
	}
	return st
}

func (t *Tx[C, K]) queue(name string) *queueState[C, K] {
	qs := t.queues[name]
	if qs == nil {
		q := t.m.reg.Queue(name)
		if q == nil {
			panic(fmt.Sprintf("semtx: unknown queue %q", name))
		}
		fq, ok := q.(txnops.FrontQueue[C, K])
		if !ok {
			panic(fmt.Sprintf("semtx: queue %q does not implement txnops.FrontQueue (TxFront)", name))
		}
		qs = &queueState[C, K]{q: q, fq: fq}
		t.queues[name] = qs
	}
	if !qs.touched {
		qs.touched = true
		t.queueOrder = append(t.queueOrder, qs)
	}
	return qs
}

func (t *Tx[C, K]) pq(name string) *pqState[C, K] {
	ps := t.pqs[name]
	if ps == nil {
		p := t.m.reg.PQ(name)
		if p == nil {
			panic(fmt.Sprintf("semtx: unknown pq %q", name))
		}
		mp, ok := p.(txnops.MinPQ[C, K])
		if !ok {
			panic(fmt.Sprintf("semtx: pq %q does not implement txnops.MinPQ (TxMin)", name))
		}
		ps = &pqState[C, K]{p: p, mp: mp}
		t.pqs[name] = ps
	}
	if !ps.touched {
		ps.touched = true
		t.pqOrder = append(t.pqOrder, ps)
	}
	return ps
}

// item returns key's record in st, probing the structure for its current
// presence on first touch — every set operation's answer rests on an
// observed presence, so every first touch records the semantic item the
// commit will revalidate. The record is good until st's next first touch.
func (t *Tx[C, K]) item(st *setState[C, K], key K) *keyItem[K] {
	if i, ok := st.index[key]; ok {
		return &st.items[i]
	}
	st.index[key] = int32(len(st.items))
	st.items = append(st.items, keyItem[K]{key: key})
	t.probedSet = st
	t.x.Atomic(t.probeSetOp)
	return &st.items[len(st.items)-1]
}

func (t *Tx[C, K]) probeSet(c C) {
	st := t.probedSet
	it := &st.items[len(st.items)-1]
	it.present = st.s.TxContains(c, it.key)
}

func (t *Tx[C, K]) probeFront(c C) {
	qs := t.probedQueue
	qs.front, qs.present = qs.fq.TxFront(c)
}

func (t *Tx[C, K]) probeMin(c C) {
	ps := t.probedPQ
	ps.min, ps.present = ps.mp.TxMin(c)
}

// Get reports whether key is in the named set, as of this transaction: the
// buffered final presence if the body wrote the key, otherwise the observed
// (and commit-revalidated) structural presence.
func (t *Tx[C, K]) Get(name string, key K) bool {
	t.live()
	t.ops++
	it := t.item(t.set(name), key)
	if it.written {
		return it.final
	}
	return it.present
}

// Put adds key to the named set, reporting whether the set changed (key was
// absent). The write is buffered until commit.
func (t *Tx[C, K]) Put(name string, key K) bool {
	t.live()
	t.ops++
	it := t.item(t.set(name), key)
	was := it.present
	if it.written {
		was = it.final
	}
	it.written, it.final = true, true
	return !was
}

// Delete removes key from the named set, reporting whether the set changed
// (key was present). The write is buffered until commit.
func (t *Tx[C, K]) Delete(name string, key K) bool {
	t.live()
	t.ops++
	it := t.item(t.set(name), key)
	was := it.present
	if it.written {
		was = it.final
	}
	it.written, it.final = true, false
	return was
}

// Enqueue appends v to the named queue. The write is buffered until commit.
func (t *Tx[C, K]) Enqueue(name string, v K) {
	t.live()
	t.ops++
	qs := t.queue(name)
	qs.enq = append(qs.enq, v)
}

// Dequeue removes and returns the oldest value of the named queue, as of
// this transaction. The first Dequeue observes the structural front (the
// semantic head item): a present front is consumed structurally at commit;
// an observed-empty queue serves the body's own buffered enqueues in FIFO
// order. At most one structural dequeue per queue per transaction — the
// queue's next front is unknowable until the first pop publishes — so a
// second Dequeue after a structural one panics with *Violation.
func (t *Tx[C, K]) Dequeue(name string) (K, bool) {
	t.live()
	t.ops++
	qs := t.queue(name)
	var zero K
	if qs.popped {
		panic(&Violation{Struct: name, Op: "Dequeue", Reason: "second structural dequeue in one transaction"})
	}
	if !qs.observed {
		t.probedQueue = qs
		t.x.Atomic(t.probeFrontOp)
		qs.observed = true
	}
	if qs.present {
		qs.popped = true
		return qs.front, true
	}
	// Observed empty: the only elements are this body's own enqueues.
	if qs.served < len(qs.enq) {
		v := qs.enq[qs.served]
		qs.served++
		return v, true
	}
	return zero, false
}

// Push adds v to the named priority queue. The write is buffered until
// commit.
func (t *Tx[C, K]) Push(name string, v K) {
	t.live()
	t.ops++
	ps := t.pq(name)
	ps.buf = append(ps.buf, v)
}

// PopMin removes and returns the minimum of the named priority queue, as of
// this transaction. The first PopMin observes the structural minimum (the
// semantic min item); the transaction's minimum is the smaller of that and
// the body's own buffered pushes, with the structural value winning ties.
// At most one structural pop per PQ per transaction (the mound's own
// TxPopMin bound); a second PopMin after a structural one panics with
// *Violation.
func (t *Tx[C, K]) PopMin(name string) (K, bool) {
	t.live()
	t.ops++
	ps := t.pq(name)
	var zero K
	if !ps.observed {
		t.probedPQ = ps
		t.x.Atomic(t.probeMinOp)
		ps.observed = true
	}
	bi := -1 // index of the smallest buffered push, if any
	for i, v := range ps.buf {
		if bi < 0 || v < ps.buf[bi] {
			bi = i
		}
	}
	serveBuf := func() (K, bool) {
		v := ps.buf[bi]
		ps.buf = slices.Delete(ps.buf, bi, bi+1)
		return v, true
	}
	switch {
	case ps.present && !ps.popped:
		if bi < 0 || ps.min <= ps.buf[bi] {
			ps.popped = true
			return ps.min, true
		}
		return serveBuf()
	case ps.present: // popped: the next structural minimum is unknowable...
		if bi >= 0 && ps.buf[bi] < ps.min {
			// ...but it is at least the popped minimum, so a strictly
			// smaller buffered push is verifiably the answer.
			return serveBuf()
		}
		panic(&Violation{Struct: name, Op: "PopMin", Reason: "second structural pop in one transaction"})
	default: // observed empty: only the body's own pushes exist
		if bi >= 0 {
			return serveBuf()
		}
		return zero, false
	}
}

// Ops returns the number of structure operations the body has issued so
// far on this attempt.
func (t *Tx[C, K]) Ops() int {
	t.live()
	return t.ops
}

// commit runs the transaction's single commit operation: revalidate every
// semantic item, and only if all hold, apply the buffered writes and the
// optional stamp. Reports the stamp and whether validation held; on a
// false return the commit staged no writes (it completed as a validated
// read-only operation) and the caller re-runs the body.
func (t *Tx[C, K]) commit() (uint64, bool) {
	if len(t.setOrder) == 0 && len(t.queueOrder) == 0 && len(t.pqOrder) == 0 && t.m.stamp == nil {
		return 0, true
	}
	// Precompute each PQ's push split outside the atomic body (it may run
	// many attempts). When a structural pop is pending, pushes above the
	// validated min go before the pop — they cannot displace the root, so
	// TxPopMin still returns the validated value — and pushes at or below
	// it go after, largest first: each lands on the just-popped root itself
	// (its staged value only ever shrinks toward the next push), which the
	// mound's TxPush accepts dirty, instead of under a dirty parent whose
	// clean-parent guard would retry without bound against our own
	// speculative dirt.
	for _, ps := range t.pqOrder {
		if !ps.popped {
			continue
		}
		for _, v := range ps.buf {
			if v > ps.min {
				ps.prePush = append(ps.prePush, v)
			} else {
				ps.postPush = append(ps.postPush, v)
			}
		}
		slices.SortFunc(ps.postPush, func(a, b K) int { return cmp.Compare(b, a) })
	}
	t.x.Atomic(t.commitOp)
	return t.seq, t.semOK
}

// commitBody is the body of the commit operation. It may run many attempts,
// so it reads the Tx and writes only seq and semOK.
func (t *Tx[C, K]) commitBody(c C) {
	t.seq, t.semOK = 0, true

	// Validate phase: read-only, in first-touch order. Any mismatch
	// returns before a single write is staged.
	for _, st := range t.setOrder {
		for i := range st.items {
			if it := &st.items[i]; st.s.TxContains(c, it.key) != it.present {
				t.semOK = false
				return
			}
		}
	}
	for _, qs := range t.queueOrder {
		if qs.observed {
			v, ok := qs.fq.TxFront(c)
			if ok != qs.present || (ok && v != qs.front) {
				t.semOK = false
				return
			}
		}
	}
	for _, ps := range t.pqOrder {
		if ps.observed {
			v, ok := ps.mp.TxMin(c)
			if ok != ps.present || (ok && v != ps.min) {
				t.semOK = false
				return
			}
		}
	}

	// Apply phase: the validated items pin the structural state, so
	// each adapter call below must agree with them; a disagreement
	// means this attempt's view tore mid-body — restart the attempt
	// (not the body).
	for _, st := range t.setOrder {
		for i := range st.items {
			it := &st.items[i]
			if !it.written || it.final == it.present {
				continue
			}
			if it.final {
				if !st.s.TxInsert(c, it.key) {
					c.Retry()
				}
			} else {
				if !st.s.TxRemove(c, it.key) {
					c.Retry()
				}
			}
		}
	}
	for _, qs := range t.queueOrder {
		if qs.popped {
			if v, ok := qs.q.TxDequeue(c); !ok || v != qs.front {
				c.Retry()
			}
		}
		for _, v := range qs.enq[qs.served:] {
			qs.q.TxEnqueue(c, v)
		}
	}
	for _, ps := range t.pqOrder {
		if !ps.popped {
			for _, v := range ps.buf {
				ps.p.TxPush(c, v)
			}
			continue
		}
		for _, v := range ps.prePush {
			ps.p.TxPush(c, v)
		}
		if v, ok := ps.p.TxPopMin(c); !ok || v != ps.min {
			c.Retry()
		}
		for _, v := range ps.postPush {
			ps.p.TxPush(c, v)
		}
	}
	if t.m.stamp != nil {
		t.seq = t.m.stamp(c)
	}
}
