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

// Abort codes for the speculative paths.
const (
	abortUninitialized = 1 // bucket needs initialization (slow path work)
	abortFrozen        = 2 // resize in progress
)

// Insert adds key, reporting false if already present.
func (t *PTOTable) Insert(key int64) bool {
	r := t.insSite.Begin(t.domain)
	for r.Next(0) {
		var result bool
		st := r.Try(func(tx *htm.Tx) {
			hd := htm.Load(tx, &t.head)
			i := index(key, hd.size)
			b := htm.Load(tx, &hd.buckets[i])
			if b == nil {
				tx.Abort(abortUninitialized)
			}
			if !b.ok {
				tx.Abort(abortFrozen)
			}
			if b.contains(key) {
				result = false
				return
			}
			vals := make([]int64, 0, len(b.vals)+1)
			vals = append(vals, b.vals...)
			vals = append(vals, key)
			htm.Store(tx, &hd.buckets[i], &fnode{vals: vals, ok: true})
			result = true
		})
		if st == htm.Committed {
			if result {
				t.bump(1)
			}
			return result
		}
	}
	r.Fallback()
	return t.insertFallback(key)
}

// Remove deletes key, reporting false if absent.
func (t *PTOTable) Remove(key int64) bool {
	r := t.rmSite.Begin(t.domain)
	for r.Next(0) {
		var result bool
		st := r.Try(func(tx *htm.Tx) {
			hd := htm.Load(tx, &t.head)
			i := index(key, hd.size)
			b := htm.Load(tx, &hd.buckets[i])
			if b == nil {
				tx.Abort(abortUninitialized)
			}
			if !b.ok {
				tx.Abort(abortFrozen)
			}
			if !b.contains(key) {
				result = false
				return
			}
			vals := make([]int64, 0, len(b.vals))
			for _, v := range b.vals {
				if v != key {
					vals = append(vals, v)
				}
			}
			htm.Store(tx, &hd.buckets[i], &fnode{vals: vals, ok: true})
			result = true
		})
		if st == htm.Committed {
			if result {
				t.count.Add(-1)
			}
			return result
		}
	}
	r.Fallback()
	return t.removeFallback(key)
}

// Contains reports whether key is present. The transactional path touches no
// reclaimer state at all; the fallback is the original wait-free lookup
// inside an epoch bracket.
func (t *PTOTable) Contains(key int64) bool {
	r := t.conSite.Begin(t.domain)
	for r.Next(0) {
		var result bool
		st := r.Try(func(tx *htm.Tx) {
			hd := htm.Load(tx, &t.head)
			i := index(key, hd.size)
			b := htm.Load(tx, &hd.buckets[i])
			if b == nil {
				pred := htm.Load(tx, &hd.pred)
				if pred == nil {
					tx.Abort(abortUninitialized)
				}
				if hd.size == pred.size*2 {
					b = htm.Load(tx, &pred.buckets[index(key, pred.size)])
				} else {
					b = htm.Load(tx, &pred.buckets[i])
					if b != nil && b.contains(key) {
						result = true
						return
					}
					b = htm.Load(tx, &pred.buckets[i+hd.size])
				}
				if b == nil {
					tx.Abort(abortUninitialized)
				}
			}
			result = b.contains(key)
		})
		if st == htm.Committed {
			return result
		}
	}
	r.Fallback()
	h := t.handles.Get().(*epoch.Handle)
	h.Enter()
	defer func() { h.Exit(); t.handles.Put(h) }()
	hd := htm.Load(nil, &t.head)
	i := index(key, hd.size)
	if b := htm.Load(nil, &hd.buckets[i]); b != nil {
		return b.contains(key)
	}
	pred := htm.Load(nil, &hd.pred)
	if pred == nil {
		return t.initBucket(hd, i).contains(key)
	}
	if hd.size == pred.size*2 {
		return htm.Load(nil, &pred.buckets[index(key, pred.size)]).contains(key)
	}
	if htm.Load(nil, &pred.buckets[i]).contains(key) {
		return true
	}
	return htm.Load(nil, &pred.buckets[i+hd.size]).contains(key)
}

// bump adjusts the element count and applies the growth policy.
func (t *PTOTable) bump(delta int64) {
	if c := t.count.Add(delta); delta > 0 {
		hd := htm.Load(nil, &t.head)
		if int(c) > growFactor*hd.size {
			t.resize(hd, true)
		}
	}
}

// The remainder is the original copy-on-write protocol over the
// transactional Vars: the fallback path.

func (t *PTOTable) insertFallback(key int64) bool {
	h := t.handles.Get().(*epoch.Handle)
	h.Enter()
	defer func() { h.Exit(); t.handles.Put(h) }()
	for {
		hd := htm.Load(nil, &t.head)
		i := index(key, hd.size)
		b := htm.Load(nil, &hd.buckets[i])
		if b == nil {
			b = t.initBucket(hd, i)
		}
		if !b.ok {
			continue
		}
		if b.contains(key) {
			return false
		}
		vals := make([]int64, 0, len(b.vals)+1)
		vals = append(vals, b.vals...)
		vals = append(vals, key)
		if htm.CAS(nil, &hd.buckets[i], b, &fnode{vals: vals, ok: true}) {
			t.bump(1)
			return true
		}
	}
}

func (t *PTOTable) removeFallback(key int64) bool {
	h := t.handles.Get().(*epoch.Handle)
	h.Enter()
	defer func() { h.Exit(); t.handles.Put(h) }()
	for {
		hd := htm.Load(nil, &t.head)
		i := index(key, hd.size)
		b := htm.Load(nil, &hd.buckets[i])
		if b == nil {
			b = t.initBucket(hd, i)
		}
		if !b.ok {
			continue
		}
		if !b.contains(key) {
			return false
		}
		vals := make([]int64, 0, len(b.vals))
		for _, v := range b.vals {
			if v != key {
				vals = append(vals, v)
			}
		}
		if htm.CAS(nil, &hd.buckets[i], b, &fnode{vals: vals, ok: true}) {
			t.count.Add(-1)
			return true
		}
	}
}

func (t *PTOTable) initBucket(h *pthnode, i int) *fnode {
	if b := htm.Load(nil, &h.buckets[i]); b != nil {
		return b
	}
	pred := htm.Load(nil, &h.pred)
	var vals []int64
	if pred != nil {
		if h.size == pred.size*2 {
			src := t.freeze(pred, i%pred.size)
			for _, k := range src {
				if index(k, h.size) == i {
					vals = append(vals, k)
				}
			}
		} else {
			vals = append(vals, t.freeze(pred, i)...)
			vals = append(vals, t.freeze(pred, i+h.size)...)
		}
	}
	nb := &fnode{vals: vals, ok: true}
	if htm.CAS(nil, &h.buckets[i], nil, nb) {
		return nb
	}
	return htm.Load(nil, &h.buckets[i])
}

func (t *PTOTable) freeze(h *pthnode, i int) []int64 {
	for {
		b := htm.Load(nil, &h.buckets[i])
		if b == nil {
			b = t.initBucket(h, i)
		}
		if !b.ok {
			return b.vals
		}
		if htm.CAS(nil, &h.buckets[i], b, &fnode{vals: b.vals, ok: false}) {
			return b.vals
		}
	}
}

func (t *PTOTable) resize(hd *pthnode, grow bool) {
	if htm.Load(nil, &t.head) != hd {
		return
	}
	if !grow && hd.size == 2 {
		return
	}
	for i := 0; i < hd.size; i++ {
		t.initBucket(hd, i)
	}
	htm.Store(nil, &hd.pred, nil)
	size := hd.size * 2
	if !grow {
		size = hd.size / 2
	}
	if htm.CAS(nil, &t.head, hd, t.newHNode(size, hd)) {
		t.resizes.Add(1)
	}
}

// Grow forces a doubling of the current table.
func (t *PTOTable) Grow() { t.resize(htm.Load(nil, &t.head), true) }

// Shrink forces a halving of the current table.
func (t *PTOTable) Shrink() { t.resize(htm.Load(nil, &t.head), false) }

// Size returns the current bucket count.
func (t *PTOTable) Size() int { return htm.Load(nil, &t.head).size }

// Len returns the current element count.
func (t *PTOTable) Len() int { return int(t.count.Load()) }

// Resizes returns the number of completed table replacements.
func (t *PTOTable) Resizes() uint64 { return t.resizes.Load() }

// Keys returns a snapshot of the elements (quiescent use only; for tests).
func (t *PTOTable) Keys() []int64 {
	hd := htm.Load(nil, &t.head)
	var out []int64
	for i := 0; i < hd.size; i++ {
		b := t.initBucket(hd, i)
		out = append(out, b.vals...)
	}
	return out
}
