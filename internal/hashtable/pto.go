package hashtable

import (
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/htm"
	"repro/internal/speculate"
)

// PTOTable is the straightforward PTO application of §4.5: each operation is
// attempted as a prefix transaction over the unchanged copy-on-write
// algorithm. Updates gain little — their cost is dominated by allocating and
// copying the replacement bucket, which the transaction does not remove —
// but transactional lookups elide all interaction with the epoch reclaimer
// (Enter/Exit stores and their fences), which the paper identifies as a
// significant share of short-operation latency. The fallback paths run the
// original protocol, including the epoch brackets.
type PTOTable struct {
	domain   *htm.Domain
	head     htm.Var[*pthnode]
	count    atomic.Int64
	mgr      *epoch.Manager
	handles  sync.Pool
	attempts int
	resizes  atomic.Uint64

	insSite *speculate.Site
	rmSite  *speculate.Site
	conSite *speculate.Site

	// onInsert and onRemove are the composed updates' OnCommit count hooks,
	// made once per table so a composed update allocates none.
	onInsert, onRemove func()
}

type pthnode struct {
	size    int
	buckets []htm.Var[*fnode]
	pred    htm.Var[*pthnode]
}

// DefaultAttempts is the per-operation transaction retry budget for the
// PTO hash table.
const DefaultAttempts = 3

func (t *PTOTable) newHNode(size int, pred *pthnode) *pthnode {
	h := &pthnode{size: size, buckets: make([]htm.Var[*fnode], size)}
	for i := range h.buckets {
		h.buckets[i].Init(t.domain, nil)
	}
	h.pred.Init(t.domain, pred)
	return h
}

// NewPTOTable returns an empty PTO-accelerated table. attempts ≤ 0 selects
// DefaultAttempts.
func NewPTOTable(buckets, attempts int) *PTOTable {
	return NewPTOTableIn(htm.NewDomain(0, 0), buckets, attempts)
}

// WithPolicy replaces the speculation policy governing the retry loops. The
// default, speculate.Fixed(0), reproduces the historical behavior: every
// operation makes exactly `attempts` tries — explicit aborts included — then
// falls back. Returns t for chaining.
func (t *PTOTable) WithPolicy(p speculate.Policy) *PTOTable {
	lvl := speculate.Level{Name: "pto", Attempts: t.attempts, RetryExplicit: true}
	t.insSite = p.Site("hashtable/insert", 1, lvl)
	t.rmSite = p.Site("hashtable/remove", 1, lvl)
	t.conSite = p.Site("hashtable/contains", 1, lvl)
	return t
}

// Domain exposes the transactional domain (for tests and diagnostics).
func (t *PTOTable) Domain() *htm.Domain { return t.domain }

// Insert adds key, reporting false if already present.
func (t *PTOTable) Insert(key int64) bool { return t.update(t.insSite, key, true) }

// Remove deletes key, reporting false if absent.
func (t *PTOTable) Remove(key int64) bool { return t.update(t.rmSite, key, false) }

// update runs TxUpdate as a prefix transaction, then the original protocol.
func (t *PTOTable) update(site *speculate.Site, key int64, add bool) bool {
	m := t.mem()
	r := site.Begin(t.domain)
	for r.Next(0) {
		var result bool
		st := r.Try(func(tx *htm.Tx) {
			result = TxUpdate(m, (*ptoTx)(tx), Gen{pto: htm.Load(tx, &t.head)}, key, add)
		})
		if st == htm.Committed {
			if result {
				m.Count(key, add)
			}
			return result
		}
	}
	r.Fallback()
	h := t.enter()
	defer t.exit(h)
	return Update(m, key, add)
}

// Contains reports whether key is present. The transactional path touches no
// reclaimer state at all; the fallback is the original wait-free lookup
// inside an epoch bracket.
func (t *PTOTable) Contains(key int64) bool {
	m := t.mem()
	r := t.conSite.Begin(t.domain)
	for r.Next(0) {
		var result bool
		st := r.Try(func(tx *htm.Tx) {
			result = TxContains(m, (*ptoTx)(tx), Gen{pto: htm.Load(tx, &t.head)}, key)
		})
		if st == htm.Committed {
			return result
		}
	}
	r.Fallback()
	h := t.enter()
	defer t.exit(h)
	return Contains(m, key)
}

func (t *PTOTable) enter() *epoch.Handle {
	h := t.handles.Get().(*epoch.Handle)
	h.Enter()
	return h
}

func (t *PTOTable) exit(h *epoch.Handle) {
	h.Exit()
	t.handles.Put(h)
}

// mem is the table's Mem: direct accesses of its Vars.
func (t *PTOTable) mem() *ptoMem { return (*ptoMem)(t) }

type ptoMem PTOTable

func (m *ptoMem) Head() Gen              { return Gen{pto: htm.Load(nil, &m.head)} }
func (*ptoMem) Size(g Gen) int           { return g.pto.size }
func (*ptoMem) Pred(g Gen) Gen           { return Gen{pto: htm.Load(nil, &g.pto.pred)} }
func (*ptoMem) Unlink(g Gen)             { htm.Store(nil, &g.pto.pred, nil) }
func (*ptoMem) Uninit(g Gen, i int) bool { return htm.Load(nil, &g.pto.buckets[i]) == nil }
func (*ptoMem) Bucket(g Gen, i int) (Word, []int64, State) {
	return read(htm.Load(nil, &g.pto.buckets[i]))
}

func (*ptoMem) Scan(g Gen, i int, key int64) (found, ok bool) {
	b := htm.Load(nil, &g.pto.buckets[i])
	return b != nil && Has(b.vals, key), b != nil
}

// Replace retires nothing: a prefix lookup reads bucket arrays outside any
// epoch bracket, so none may be recycled.
func (*ptoMem) Replace(g Gen, i int, w Word, vals []int64, key int64, add bool) bool {
	nv := Cow(make([]int64, 0, cowLen(vals, add)), vals, key, add)
	return htm.CAS(nil, &g.pto.buckets[i], w.n, &fnode{vals: nv, ok: true})
}

func (*ptoMem) Freeze(g Gen, i int, w Word, vals []int64) bool {
	return htm.CAS(nil, &g.pto.buckets[i], w.n, &fnode{vals: vals, ok: false})
}

func (*ptoMem) Buf() []int64 { return nil }

func (*ptoMem) Init(g Gen, i int, vals []int64) {
	htm.CAS(nil, &g.pto.buckets[i], nil, &fnode{vals: vals, ok: true})
}

func (m *ptoMem) Install(g Gen, size int) {
	if htm.CAS(nil, &m.head, g.pto, (*PTOTable)(m).newHNode(size, g.pto)) {
		m.resizes.Add(1)
	}
}

// Count grows the table when the count exceeds growFactor per bucket.
func (m *ptoMem) Count(_ int64, add bool) {
	if !add {
		m.count.Add(-1)
		return
	}
	c := m.count.Add(1)
	if hd := htm.Load(nil, &m.head); int(c) > growFactor*hd.size {
		Resize(m, Gen{pto: hd}, true)
	}
}

// ptoTx is the TxMem of a prefix transaction: plain loads and buffered
// stores of the Vars.
type ptoTx htm.Tx

func (x *ptoTx) tx() *htm.Tx     { return (*htm.Tx)(x) }
func (*ptoTx) Size(g Gen) int    { return g.pto.size }
func (x *ptoTx) Pred(g Gen) Gen  { return Gen{pto: htm.Load(x.tx(), &g.pto.pred)} }
func (x *ptoTx) Abort(code int)  { x.tx().Abort(code) }
func (*ptoTx) Speculative() bool { return true }

func (x *ptoTx) Find(g Gen, i int, key int64) (Word, int, int, State) {
	return find(htm.Load(x.tx(), &g.pto.buckets[i]), key)
}

func (x *ptoTx) Lookup(g Gen, i int, key int64) (bool, State) {
	return lookup(htm.Load(x.tx(), &g.pto.buckets[i]), key)
}

func (x *ptoTx) Put(g Gen, i int, w Word, _, _ int, key int64, add bool) {
	htm.Store(x.tx(), &g.pto.buckets[i], put(w, key, add))
}

// find, lookup and put are the runtime tables' bucket reads and copy for a
// transaction.

func find(b *fnode, key int64) (Word, int, int, State) {
	w, vals, st := read(b)
	at := -1
	for j, v := range vals {
		if v == key {
			at = j
			break
		}
	}
	return w, len(vals), at, st
}

// lookup reports a frozen bucket as live: with the head in the footprint,
// its contents answer the lookup.
func lookup(b *fnode, key int64) (bool, State) {
	if b == nil {
		return false, Uninit
	}
	return Has(b.vals, key), Live
}

func put(w Word, key int64, add bool) *fnode {
	vals := w.n.vals
	return &fnode{vals: Cow(make([]int64, 0, cowLen(vals, add)), vals, key, add), ok: true}
}

// cowLen is the length of vals after Cow adds (add) or removes a key: the
// runtime's copies are allocated to size.
func cowLen(vals []int64, add bool) int {
	if add {
		return len(vals) + 1
	}
	return len(vals) - 1
}

// Grow forces a doubling of the current table.
func (t *PTOTable) Grow() { Resize(t.mem(), t.mem().Head(), true) }

// Shrink forces a halving of the current table.
func (t *PTOTable) Shrink() { Resize(t.mem(), t.mem().Head(), false) }

// Size returns the current bucket count.
func (t *PTOTable) Size() int { return htm.Load(nil, &t.head).size }

// Len returns the current element count.
func (t *PTOTable) Len() int { return int(t.count.Load()) }

// Resizes returns the number of completed table replacements.
func (t *PTOTable) Resizes() uint64 { return t.resizes.Load() }

// Keys returns a snapshot of the elements (quiescent use only; for tests).
func (t *PTOTable) Keys() []int64 { return Keys(t.mem()) }
