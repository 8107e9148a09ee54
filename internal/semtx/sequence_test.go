package semtx_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bst"
	"repro/internal/hashtable"
	"repro/internal/mound"
	"repro/internal/msqueue"
	"repro/internal/semtx"
	"repro/internal/skiplist"
	"repro/internal/txn"
	"repro/internal/txnops"
)

// The sequence of adapter calls an open transaction makes is a contract: the
// simulated twin's events, the twin replay and A12's modeled numbers are
// functions of it. This file records every call through wrappers registered
// in place of the structures and checks the record against the sequence the
// protocol in the package comment prescribes — one probe, in an operation of
// its own, per first touch; then one operation that validates every item in
// first-touch order and applies every write in first-touch order — so the
// representation of a Tx can change without asking the simulator whether the
// protocol did.

// call is one recorded step: a composed operation beginning (op "atomic")
// or an adapter call inside one.
type call struct {
	on, op string
	arg    int64
}

// callLog is the record of one single-goroutine test.
type callLog struct{ calls []call }

func (l *callLog) add(on, op string, arg int64) { l.calls = append(l.calls, call{on, op, arg}) }

// recExec marks the beginning of every composed operation in the log. An
// operation whose body runs again (an aborted fast-path attempt, a capture
// restart) starts its record over, so the log holds the execution that
// committed.
type recExec struct {
	inner txnops.Exec[*txn.Ctx]
	log   *callLog
}

func (x recExec) Atomic(body func(c *txn.Ctx)) {
	start := len(x.log.calls)
	x.inner.Atomic(func(c *txn.Ctx) {
		x.log.calls = x.log.calls[:start]
		x.log.add("", "atomic", 0)
		body(c)
	})
}

type recSet struct {
	name  string
	inner txnops.Set[*txn.Ctx, int64]
	log   *callLog
}

func (s recSet) TxContains(c *txn.Ctx, k int64) bool {
	s.log.add(s.name, "contains", k)
	return s.inner.TxContains(c, k)
}

func (s recSet) TxInsert(c *txn.Ctx, k int64) bool {
	s.log.add(s.name, "insert", k)
	return s.inner.TxInsert(c, k)
}

func (s recSet) TxRemove(c *txn.Ctx, k int64) bool {
	s.log.add(s.name, "remove", k)
	return s.inner.TxRemove(c, k)
}

type recQueue struct {
	name  string
	inner *msqueue.PTOQueue
	log   *callLog
}

func (q recQueue) TxEnqueue(c *txn.Ctx, v int64) {
	q.log.add(q.name, "enqueue", v)
	q.inner.TxEnqueue(c, v)
}

func (q recQueue) TxDequeue(c *txn.Ctx) (int64, bool) {
	q.log.add(q.name, "dequeue", 0)
	return q.inner.TxDequeue(c)
}

func (q recQueue) TxFront(c *txn.Ctx) (int64, bool) {
	q.log.add(q.name, "front", 0)
	return q.inner.TxFront(c)
}

type recPQ struct {
	name  string
	inner *mound.Mound
	log   *callLog
}

func (p recPQ) TxPush(c *txn.Ctx, v int64) {
	p.log.add(p.name, "push", v)
	p.inner.TxPush(c, v)
}

func (p recPQ) TxPopMin(c *txn.Ctx) (int64, bool) {
	p.log.add(p.name, "popmin", 0)
	return p.inner.TxPopMin(c)
}

func (p recPQ) TxMin(c *txn.Ctx) (int64, bool) {
	p.log.add(p.name, "min", 0)
	return p.inner.TxMin(c)
}

var recSets = []string{"a", "b", "c"}

// recEnv is three sets, a queue "q" and a PQ "p", every one registered
// behind a recording wrapper, and a manager whose Exec records too.
type recEnv struct {
	log  *callLog
	sm   *semtx.Manager[*txn.Ctx, int64]
	tm   *txn.Manager
	sets map[string]interface{ Contains(int64) bool }
	q    *msqueue.PTOQueue
	pq   *mound.Mound
}

func newRecEnv() *recEnv {
	tm := txn.New(0)
	d := tm.Domain()
	h, s, b := hashtable.NewPTOTableIn(d, 1024, 0), skiplist.NewPTOSetIn(d, 0), bst.NewPTOIn(d, 0, 0)
	e := &recEnv{
		log:  &callLog{},
		tm:   tm,
		sets: map[string]interface{ Contains(int64) bool }{"a": h, "b": s, "c": b},
		q:    msqueue.NewPTOIn(d, 0),
		pq:   mound.NewPTOIn(d, 12, 0),
	}
	r := tm.Structures()
	r.AddSet("a", recSet{"a", h, e.log})
	r.AddSet("b", recSet{"b", s, e.log})
	r.AddSet("c", recSet{"c", b, e.log})
	r.AddQueue("q", recQueue{"q", e.q, e.log})
	r.AddPQ("p", recPQ{"p", e.pq, e.log})
	e.sm = semtx.New[*txn.Ctx, int64](recExec{tm, e.log}, r)
	return e
}

// specItem is a key's semantic item as the protocol defines it.
type specItem struct {
	key                     int64
	present, written, final bool
}

// specTx is one transaction as the documented protocol sees it: the calls
// prescribed so far and the state that decides the next ones.
type specTx struct {
	w    *specWorld
	want []call

	setOrder []string
	items    map[string][]*specItem // first-touch order
	byKey    map[string]map[int64]*specItem

	qTouched, qObserved, qPresent, qPopped bool
	qFront                                 int64
	enq                                    []int64
	served                                 int

	pObserved, pPresent, pPopped bool
	pMin                         int64
	buf                          []int64
}

// specWorld is the committed state: the model the results are checked
// against.
type specWorld struct {
	sets  map[string]map[int64]bool
	queue []int64
	pq    []int64 // ascending
}

func newSpecWorld() *specWorld {
	w := &specWorld{sets: map[string]map[int64]bool{}}
	for _, n := range recSets {
		w.sets[n] = map[int64]bool{}
	}
	return w
}

func (w *specWorld) begin() *specTx {
	return &specTx{w: w, items: map[string][]*specItem{}, byKey: map[string]map[int64]*specItem{}}
}

func (s *specTx) expect(on, op string, arg int64) { s.want = append(s.want, call{on, op, arg}) }

// item is the first-touch rule: a key's first operation probes it, in an
// operation of its own.
func (s *specTx) item(set string, key int64) *specItem {
	if s.byKey[set] == nil {
		s.byKey[set] = map[int64]*specItem{}
		s.setOrder = append(s.setOrder, set)
	}
	it := s.byKey[set][key]
	if it == nil {
		s.expect("", "atomic", 0)
		s.expect(set, "contains", key)
		it = &specItem{key: key, present: s.w.sets[set][key]}
		s.byKey[set][key] = it
		s.items[set] = append(s.items[set], it)
	}
	return it
}

func (it *specItem) current() bool {
	if it.written {
		return it.final
	}
	return it.present
}

func (s *specTx) get(set string, key int64) bool { return s.item(set, key).current() }

func (s *specTx) write(set string, key int64, final bool) (changed bool) {
	it := s.item(set, key)
	changed = it.current() != final
	it.written, it.final = true, final
	return changed
}

func (s *specTx) enqueue(v int64) { s.qTouched, s.enq = true, append(s.enq, v) }

// canDequeue is false where a Dequeue would be a *Violation.
func (s *specTx) canDequeue() bool { return !s.qPopped }

func (s *specTx) dequeue() (int64, bool) {
	s.qTouched = true
	if !s.qObserved {
		s.expect("", "atomic", 0)
		s.expect("q", "front", 0)
		s.qObserved, s.qPresent = true, len(s.w.queue) > 0
		if s.qPresent {
			s.qFront = s.w.queue[0]
		}
	}
	if s.qPresent {
		s.qPopped = true
		return s.qFront, true
	}
	if s.served < len(s.enq) {
		s.served++
		return s.enq[s.served-1], true
	}
	return 0, false
}

func (s *specTx) push(v int64) { s.buf = append(s.buf, v) }

// canPopMin is false where a PopMin would be a *Violation — after the
// structural pop, unless a buffered push is strictly below the popped
// minimum. It does not observe.
func (s *specTx) canPopMin() bool {
	if !s.pPopped {
		return true
	}
	return len(s.buf) > 0 && slices.Min(s.buf) < s.pMin
}

func (s *specTx) popMin() (int64, bool) {
	if !s.pObserved {
		s.expect("", "atomic", 0)
		s.expect("p", "min", 0)
		s.pObserved, s.pPresent = true, len(s.w.pq) > 0
		if s.pPresent {
			s.pMin = s.w.pq[0]
		}
	}
	if s.pPresent && !s.pPopped && (len(s.buf) == 0 || s.pMin <= slices.Min(s.buf)) {
		s.pPopped = true
		return s.pMin, true
	}
	if len(s.buf) == 0 {
		return 0, false
	}
	i := slices.Index(s.buf, slices.Min(s.buf))
	v := s.buf[i]
	s.buf = slices.Delete(s.buf, i, i+1)
	return v, true
}

// commit prescribes the commit operation — validate everything in
// first-touch order, then apply everything in first-touch order — and moves
// the committed state.
func (s *specTx) commit() {
	pTouched := s.pObserved || len(s.buf) > 0
	if len(s.setOrder) == 0 && !s.qTouched && !pTouched {
		return
	}
	s.expect("", "atomic", 0)
	for _, set := range s.setOrder {
		for _, it := range s.items[set] {
			s.expect(set, "contains", it.key)
		}
	}
	if s.qObserved {
		s.expect("q", "front", 0)
	}
	if s.pObserved {
		s.expect("p", "min", 0)
	}
	for _, set := range s.setOrder {
		for _, it := range s.items[set] {
			switch {
			case !it.written || it.final == it.present:
			case it.final:
				s.expect(set, "insert", it.key)
				s.w.sets[set][it.key] = true
			default:
				s.expect(set, "remove", it.key)
				delete(s.w.sets[set], it.key)
			}
		}
	}
	if s.qPopped {
		s.expect("q", "dequeue", 0)
		s.w.queue = s.w.queue[1:]
	}
	for _, v := range s.enq[s.served:] {
		s.expect("q", "enqueue", v)
		s.w.queue = append(s.w.queue, v)
	}
	var pre, post []int64
	for _, v := range s.buf {
		if s.pPopped && v <= s.pMin {
			post = append(post, v)
		} else {
			pre = append(pre, v)
		}
	}
	slices.SortFunc(post, func(a, b int64) int { return cmp.Compare(b, a) })
	for _, v := range pre {
		s.expect("p", "push", v)
	}
	if s.pPopped {
		s.expect("p", "popmin", 0)
		s.w.pq = s.w.pq[1:]
	}
	for _, v := range post {
		s.expect("p", "push", v)
	}
	s.w.pq = append(s.w.pq, s.buf...)
	slices.Sort(s.w.pq)
}

// runChecked runs body as one transaction on e and on the protocol's model
// side by side, and checks the recorded calls against the prescribed ones.
func (e *recEnv) runChecked(t *testing.T, w *specWorld, what string, body func(tx *semtx.Tx[*txn.Ctx, int64], s *specTx)) {
	t.Helper()
	e.log.calls = e.log.calls[:0]
	s := w.begin()
	runs := 0
	if _, err := e.sm.Run(func(tx *semtx.Tx[*txn.Ctx, int64]) error {
		runs++
		body(tx, s)
		return nil
	}); err != nil {
		t.Fatalf("%s: Run: %v", what, err)
	}
	if runs != 1 {
		t.Fatalf("%s: body ran %d times with nobody else about", what, runs)
	}
	s.commit()
	got, want := e.log.calls, s.want
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("%s: call %d of %d recorded, %d prescribed:\n got %v\nwant %v", what, i, len(got), len(want), at(got, i), at(want, i))
		}
	}
}

// at returns the calls around position i, for a failure message.
func at(cs []call, i int) []call {
	return cs[max(0, min(i-3, len(cs))):min(i+3, len(cs))]
}

// checkWorld compares the structures with the committed model, emptying
// the queue and the PQ.
func (e *recEnv) checkWorld(t *testing.T, w *specWorld, keys int64) {
	t.Helper()
	for name, s := range e.sets {
		for k := int64(0); k < keys; k++ {
			if got := s.Contains(k); got != w.sets[name][k] {
				t.Errorf("set %q key %d: present %v, model %v", name, k, got, w.sets[name][k])
			}
		}
	}
	for _, want := range w.queue {
		if v, ok := e.q.Dequeue(); !ok || v != want {
			t.Fatalf("queue: dequeued %d,%v, model %d", v, ok, want)
		}
	}
	if v, ok := e.q.Dequeue(); ok {
		t.Errorf("queue: %d left over", v)
	}
	for _, want := range w.pq {
		if v, ok := e.pq.RemoveMin(); !ok || v != want {
			t.Fatalf("pq: removed %d,%v, model %d", v, ok, want)
		}
	}
	if v, ok := e.pq.RemoveMin(); ok {
		t.Errorf("pq: %d left over", v)
	}
}

// TestCallSequenceRandom runs seeded random bodies of 1–200 operations over
// the three sets, the queue and the PQ — keys repeat, structures are
// touched again after others, reads follow own writes — and checks every
// adapter call and every result. An operation that would be a *Violation is
// replaced by the matching write.
func TestCallSequenceRandom(t *testing.T) {
	const seed, keys = 23, 48
	rnd := rand.New(rand.NewSource(seed))
	e, w := newRecEnv(), newSpecWorld()
	txns := 300
	if testing.Short() {
		txns = 60
	}
	for n := 0; n < txns; n++ {
		ops := 1 + rnd.Intn(200)
		if rnd.Intn(4) > 0 {
			ops = 1 + rnd.Intn(12) // most bodies are small, as most requests are
		}
		span := 1 + rnd.Int63n(keys)
		e.runChecked(t, w, "seed 23", func(tx *semtx.Tx[*txn.Ctx, int64], s *specTx) {
			for i := 0; i < ops; i++ {
				set, key, val := recSets[rnd.Intn(len(recSets))], rnd.Int63n(span), 1+rnd.Int63n(1000)
				kind := rnd.Intn(10)
				if kind == 7 && !s.canDequeue() {
					kind = 6
				}
				if kind == 9 && !s.canPopMin() {
					kind = 8
				}
				switch kind {
				case 0, 1:
					if got, want := tx.Get(set, key), s.get(set, key); got != want {
						t.Fatalf("txn %d op %d: Get(%s, %d) = %v, model %v", n, i, set, key, got, want)
					}
				case 2, 3, 4:
					if got, want := tx.Put(set, key), s.write(set, key, true); got != want {
						t.Fatalf("txn %d op %d: Put(%s, %d) = %v, model %v", n, i, set, key, got, want)
					}
				case 5:
					if got, want := tx.Delete(set, key), s.write(set, key, false); got != want {
						t.Fatalf("txn %d op %d: Delete(%s, %d) = %v, model %v", n, i, set, key, got, want)
					}
				case 6:
					tx.Enqueue("q", val)
					s.enqueue(val)
				case 7:
					got, ok := tx.Dequeue("q")
					if want, wok := s.dequeue(); got != want || ok != wok {
						t.Fatalf("txn %d op %d: Dequeue = %d,%v, model %d,%v", n, i, got, ok, want, wok)
					}
				case 8:
					tx.Push("p", val)
					s.push(val)
				case 9:
					got, ok := tx.PopMin("p")
					if want, wok := s.popMin(); got != want || ok != wok {
						t.Fatalf("txn %d op %d: PopMin = %d,%v, model %d,%v", n, i, got, ok, want, wok)
					}
				}
			}
			if tx.Ops() != ops {
				t.Fatalf("txn %d: Ops() = %d after %d operations", n, tx.Ops(), ops)
			}
		})
	}
	e.checkWorld(t, w, keys)
}

// TestCallSequencePoppedPQ is the one order random bodies seldom reach: a
// structural pop with several buffered pushes on either side of the popped
// minimum — those above go before the pop in push order, those at or below
// it after, largest first.
func TestCallSequencePoppedPQ(t *testing.T) {
	e, w := newRecEnv(), newSpecWorld()
	e.runChecked(t, w, "fill", func(tx *semtx.Tx[*txn.Ctx, int64], s *specTx) {
		for _, v := range []int64{50, 90} {
			tx.Push("p", v)
			s.push(v)
		}
	})
	e.runChecked(t, w, "popped PQ", func(tx *semtx.Tx[*txn.Ctx, int64], s *specTx) {
		tx.Push("p", 70)
		s.push(70)
		got, ok := tx.PopMin("p")
		if want, wok := s.popMin(); got != want || ok != wok || got != 50 {
			t.Fatalf("PopMin = %d,%v, model %d,%v", got, ok, want, wok)
		}
		for _, v := range []int64{30, 60, 40, 50, 80, 20} {
			tx.Push("p", v)
			s.push(v)
		}
		got, ok = tx.PopMin("p") // 20: a buffered push below the popped minimum
		if want, wok := s.popMin(); got != want || ok != wok || got != 20 {
			t.Fatalf("second PopMin = %d,%v, model %d,%v", got, ok, want, wok)
		}
	})
	e.checkWorld(t, w, 0)
}

// TestCallSequenceWide is one fixed body over 4 096 keys of one set — put
// every other key, read them all back, delete a quarter — so every lookup
// after the first touch finds its item among thousands.
func TestCallSequenceWide(t *testing.T) {
	const keys = 4096
	e, w := newRecEnv(), newSpecWorld()
	for round := 0; round < 2; round++ {
		e.runChecked(t, w, "wide body", func(tx *semtx.Tx[*txn.Ctx, int64], s *specTx) {
			for k := int64(0); k < keys; k += 2 {
				if got, want := tx.Put("a", k), s.write("a", k, true); got != want {
					t.Fatalf("Put(%d) = %v, model %v", k, got, want)
				}
			}
			for k := int64(keys - 1); k >= 0; k-- {
				if got, want := tx.Get("a", k), s.get("a", k); got != want {
					t.Fatalf("Get(%d) = %v, model %v", k, got, want)
				}
			}
			for k := int64(0); k < keys; k += 4 {
				if got, want := tx.Delete("a", k), s.write("a", k, false); got != want {
					t.Fatalf("Delete(%d) = %v, model %v", k, got, want)
				}
			}
		})
	}
	e.checkWorld(t, w, keys)
}
