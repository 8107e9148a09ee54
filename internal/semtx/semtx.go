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
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(*Violation)
			if !ok {
				panic(r)
			}
			if m.tel != nil {
				m.tel.UserAborts.Add(1)
			}
			seq, err = 0, v
		}
	}()
	for {
		tx := &Tx[C, K]{m: m, x: x}
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
	}
}

// Tx is one attempt of an open transaction: the recorded semantic items and
// the buffered writes. A Tx is confined to the body invocation it is passed
// to; it is not safe for concurrent use.
type Tx[C txnops.Ctx, K cmp.Ordered] struct {
	m   *Manager[C, K]
	x   txnops.Exec[C]
	ops int

	sets   map[string]*setState[C, K]
	queues map[string]*queueState[C, K]
	pqs    map[string]*pqState[C, K]

	// First-touch order, so validation and apply visit structures in the
	// deterministic order the body introduced them.
	setOrder   []string
	queueOrder []string
	pqOrder    []string
}

// keyItem is the per-key record of a set: the observed structural presence
// (the semantic item revalidated at commit) and the buffered final presence.
type keyItem struct {
	observed bool // a structural probe recorded present
	present  bool // ... and saw this presence
	written  bool // the body buffered a final presence
	final    bool // ... of this value
}

type setState[C txnops.Ctx, K cmp.Ordered] struct {
	s     txnops.Set[C, K]
	keys  []K // first-touch order
	items map[K]*keyItem
}

type queueState[C txnops.Ctx, K cmp.Ordered] struct {
	q  txnops.Queue[C, K]
	fq txnops.FrontQueue[C, K]

	// The head item: one structural front observation (value or emptiness).
	observed bool
	present  bool
	front    K

	popped bool // one structural dequeue is pending for commit
	enq    []K  // buffered enqueues, FIFO
	served int  // prefix of enq consumed by own dequeues (observed-empty mode)
}

type pqState[C txnops.Ctx, K cmp.Ordered] struct {
	p  txnops.PQ[C, K]
	mp txnops.MinPQ[C, K]

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

func (t *Tx[C, K]) set(name string) *setState[C, K] {
	if st, ok := t.sets[name]; ok {
		return st
	}
	s := t.m.reg.Set(name)
	if s == nil {
		panic(fmt.Sprintf("semtx: unknown set %q", name))
	}
	if t.sets == nil {
		t.sets = make(map[string]*setState[C, K])
	}
	st := &setState[C, K]{s: s, items: make(map[K]*keyItem)}
	t.sets[name] = st
	t.setOrder = append(t.setOrder, name)
	return st
}

func (t *Tx[C, K]) queue(name string) *queueState[C, K] {
	if qs, ok := t.queues[name]; ok {
		return qs
	}
	q := t.m.reg.Queue(name)
	if q == nil {
		panic(fmt.Sprintf("semtx: unknown queue %q", name))
	}
	fq, ok := q.(txnops.FrontQueue[C, K])
	if !ok {
		panic(fmt.Sprintf("semtx: queue %q does not implement txnops.FrontQueue (TxFront)", name))
	}
	if t.queues == nil {
		t.queues = make(map[string]*queueState[C, K])
	}
	qs := &queueState[C, K]{q: q, fq: fq}
	t.queues[name] = qs
	t.queueOrder = append(t.queueOrder, name)
	return qs
}

func (t *Tx[C, K]) pq(name string) *pqState[C, K] {
	if ps, ok := t.pqs[name]; ok {
		return ps
	}
	p := t.m.reg.PQ(name)
	if p == nil {
		panic(fmt.Sprintf("semtx: unknown pq %q", name))
	}
	mp, ok := p.(txnops.MinPQ[C, K])
	if !ok {
		panic(fmt.Sprintf("semtx: pq %q does not implement txnops.MinPQ (TxMin)", name))
	}
	if t.pqs == nil {
		t.pqs = make(map[string]*pqState[C, K])
	}
	ps := &pqState[C, K]{p: p, mp: mp}
	t.pqs[name] = ps
	t.pqOrder = append(t.pqOrder, name)
	return ps
}

// item returns key's record in st, probing the structure for its current
// presence on first touch — every set operation's answer rests on an
// observed presence, so every first touch records the semantic item the
// commit will revalidate.
func (t *Tx[C, K]) item(st *setState[C, K], key K) *keyItem {
	if it, ok := st.items[key]; ok {
		return it
	}
	var present bool
	t.x.Atomic(func(c C) {
		present = st.s.TxContains(c, key)
	})
	it := &keyItem{observed: true, present: present}
	st.items[key] = it
	st.keys = append(st.keys, key)
	return it
}

// Get reports whether key is in the named set, as of this transaction: the
// buffered final presence if the body wrote the key, otherwise the observed
// (and commit-revalidated) structural presence.
func (t *Tx[C, K]) Get(name string, key K) bool {
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
	t.ops++
	qs := t.queue(name)
	var zero K
	if qs.popped {
		panic(&Violation{Struct: name, Op: "Dequeue", Reason: "second structural dequeue in one transaction"})
	}
	if !qs.observed {
		t.x.Atomic(func(c C) {
			qs.front, qs.present = qs.fq.TxFront(c)
		})
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
	t.ops++
	ps := t.pq(name)
	var zero K
	if !ps.observed {
		t.x.Atomic(func(c C) {
			ps.min, ps.present = ps.mp.TxMin(c)
		})
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
		ps.buf = append(ps.buf[:bi], ps.buf[bi+1:]...)
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
func (t *Tx[C, K]) Ops() int { return t.ops }

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
	for _, name := range t.pqOrder {
		ps := t.pqs[name]
		if !ps.popped {
			continue
		}
		ps.prePush, ps.postPush = ps.prePush[:0], ps.postPush[:0]
		for _, v := range ps.buf {
			if v > ps.min {
				ps.prePush = append(ps.prePush, v)
			} else {
				ps.postPush = append(ps.postPush, v)
			}
		}
		slices.SortFunc(ps.postPush, func(a, b K) int { return cmp.Compare(b, a) })
	}
	var seq uint64
	semOK := true
	t.x.Atomic(func(c C) {
		seq, semOK = 0, true

		// Validate phase: read-only, in first-touch order. Any mismatch
		// returns before a single write is staged.
		for _, name := range t.setOrder {
			st := t.sets[name]
			for _, key := range st.keys {
				it := st.items[key]
				if it.observed && st.s.TxContains(c, key) != it.present {
					semOK = false
					return
				}
			}
		}
		for _, name := range t.queueOrder {
			qs := t.queues[name]
			if qs.observed {
				v, ok := qs.fq.TxFront(c)
				if ok != qs.present || (ok && v != qs.front) {
					semOK = false
					return
				}
			}
		}
		for _, name := range t.pqOrder {
			ps := t.pqs[name]
			if ps.observed {
				v, ok := ps.mp.TxMin(c)
				if ok != ps.present || (ok && v != ps.min) {
					semOK = false
					return
				}
			}
		}

		// Apply phase: the validated items pin the structural state, so
		// each adapter call below must agree with them; a disagreement
		// means this attempt's view tore mid-body — restart the attempt
		// (not the body).
		for _, name := range t.setOrder {
			st := t.sets[name]
			for _, key := range st.keys {
				it := st.items[key]
				if !it.written || it.final == it.present {
					continue
				}
				if it.final {
					if !st.s.TxInsert(c, key) {
						c.Retry()
					}
				} else {
					if !st.s.TxRemove(c, key) {
						c.Retry()
					}
				}
			}
		}
		for _, name := range t.queueOrder {
			qs := t.queues[name]
			if qs.popped {
				if v, ok := qs.q.TxDequeue(c); !ok || v != qs.front {
					c.Retry()
				}
			}
			for _, v := range qs.enq[qs.served:] {
				qs.q.TxEnqueue(c, v)
			}
		}
		for _, name := range t.pqOrder {
			ps := t.pqs[name]
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
			seq = t.m.stamp(c)
		}
	})
	return seq, semOK
}
