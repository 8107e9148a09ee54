package hashtable

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/htm"
	"repro/internal/speculate"
)

// InplaceTable is the algorithm-modified "PTO+Inplace" hash table of
// §3.3/§5: copy-on-write is removed from the common case. Each bucket slot
// holds a (node pointer, counter) pair; a transactional update mutates the
// bucket's element array in place and increments the counter inside its
// transaction, so the usual allocate-copy-CAS sequence — and its pressure on
// the shared allocator — disappears. The price is the paper's progress
// trade-off: lookups are no longer wait-free but lock-free, re-scanning when
// the (pointer, counter) pair changed under them, which guarantees they
// cannot miss a value concurrently removed and re-inserted in place.
//
// When a transactional update cannot proceed — bucket uninitialized, frozen
// by a resize, or the in-place array is full — it aborts explicitly and the
// fallback runs the original copy-on-write protocol (with a larger array in
// the "full" case), validated against the counter so in-place and
// copy-on-write updates serialize correctly.
type InplaceTable struct {
	domain   *htm.Domain
	head     htm.Var[*iphnode]
	count    atomic.Int64
	mgr      *epoch.Manager
	handles  sync.Pool
	attempts int
	resizes  atomic.Uint64
	// inplaceHits counts updates that committed without allocation.
	inplaceHits atomic.Uint64

	insSite *speculate.Site
	rmSite  *speculate.Site
	conSite *speculate.Site
}

// ipnode is a bucket's element storage. A live node's slots are mutated in
// place under transactions; a frozen node is an immutable snapshot.
type ipnode struct {
	frozen bool
	vals   []int64 // frozen snapshot contents (frozen nodes only)
	// live state:
	n     htm.Var[int] // number of occupied slots
	slots []htm.Var[int64]
}

// bucketState is the (node, counter) pair held in each bucket slot; the
// counter is the paper's "counter attached to the bucket pointer".
type bucketState struct {
	node *ipnode
	ver  uint64
}

type iphnode struct {
	size    int
	buckets []htm.Var[bucketState]
	pred    htm.Var[*iphnode]
}

func (t *InplaceTable) newHNode(size int, pred *iphnode) *iphnode {
	h := &iphnode{size: size, buckets: make([]htm.Var[bucketState], size)}
	for i := range h.buckets {
		h.buckets[i].Init(t.domain, bucketState{})
	}
	h.pred.Init(t.domain, pred)
	return h
}

// newLive creates a live node of the given capacity holding vals.
func (t *InplaceTable) newLive(capacity int, vals []int64) *ipnode {
	if capacity < len(vals) {
		capacity = len(vals)
	}
	n := &ipnode{slots: make([]htm.Var[int64], capacity)}
	n.n.Init(t.domain, len(vals))
	for i := range n.slots {
		v := int64(0)
		if i < len(vals) {
			v = vals[i]
		}
		n.slots[i].Init(t.domain, v)
	}
	return n
}

// minCapacity is the smallest in-place array allocated.
const minCapacity = 8

// NewInplaceTable returns an empty PTO+Inplace table. attempts ≤ 0 selects
// DefaultAttempts.
func NewInplaceTable(buckets, attempts int) *InplaceTable {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	buckets = 1 << bits.Len(uint(buckets-1))
	if buckets < 2 {
		buckets = 2
	}
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	t := &InplaceTable{domain: htm.NewDomain(0, 0), mgr: epoch.NewManager(), attempts: attempts}
	t.handles.New = func() any { return t.mgr.Register() }
	t.WithPolicy(speculate.Fixed(0))
	t.head.Init(t.domain, nil)
	htm.Store(nil, &t.head, t.newHNode(buckets, nil))
	return t
}

// WithPolicy replaces the speculation policy governing the retry loops. The
// default, speculate.Fixed(0), reproduces the historical behavior: every
// operation makes exactly `attempts` tries — explicit aborts included — then
// falls back. Returns t for chaining.
func (t *InplaceTable) WithPolicy(p speculate.Policy) *InplaceTable {
	lvl := speculate.Level{Name: "pto", Attempts: t.attempts, RetryExplicit: true}
	t.insSite = p.Site("inplace/insert", 1, lvl)
	t.rmSite = p.Site("inplace/remove", 1, lvl)
	t.conSite = p.Site("inplace/contains", 1, lvl)
	return t
}

// Domain exposes the transactional domain (for tests and diagnostics).
func (t *InplaceTable) Domain() *htm.Domain { return t.domain }

// InplaceHits returns how many updates committed without any allocation.
func (t *InplaceTable) InplaceHits() uint64 { return t.inplaceHits.Load() }

// scanTx returns the index of key in the live node, or -1, reading through
// the transaction.
func scanTx(tx *htm.Tx, node *ipnode, key int64) int {
	n := htm.Load(tx, &node.n)
	for j := 0; j < n; j++ {
		if htm.Load(tx, &node.slots[j]) == key {
			return j
		}
	}
	return -1
}

// Insert adds key, reporting false if already present. The speculative path
// writes the element into a free slot of the existing array and bumps the
// bucket counter — no allocation, no copy.
func (t *InplaceTable) Insert(key int64) bool {
	r := t.insSite.Begin(t.domain)
	for r.Next(0) {
		var result bool
		st := r.Try(func(tx *htm.Tx) {
			hd := htm.Load(tx, &t.head)
			i := index(key, hd.size)
			s := htm.Load(tx, &hd.buckets[i])
			if s.node == nil {
				tx.Abort(abortUninitialized)
			}
			if s.node.frozen {
				tx.Abort(abortFrozen)
			}
			if scanTx(tx, s.node, key) >= 0 {
				result = false
				return
			}
			n := htm.Load(tx, &s.node.n)
			if n == len(s.node.slots) {
				tx.Abort(abortFull)
			}
			htm.Store(tx, &s.node.slots[n], key)
			htm.Store(tx, &s.node.n, n+1)
			htm.Store(tx, &hd.buckets[i], bucketState{node: s.node, ver: s.ver + 1})
			result = true
		})
		if st == htm.Committed {
			t.inplaceHits.Add(1)
			if result {
				t.bump(1)
			}
			return result
		}
	}
	r.Fallback()
	return t.insertFallback(key)
}

// Remove deletes key, reporting false if absent. The speculative path swaps
// the last element into the hole in place.
func (t *InplaceTable) Remove(key int64) bool {
	r := t.rmSite.Begin(t.domain)
	for r.Next(0) {
		var result bool
		st := r.Try(func(tx *htm.Tx) {
			hd := htm.Load(tx, &t.head)
			i := index(key, hd.size)
			s := htm.Load(tx, &hd.buckets[i])
			if s.node == nil {
				tx.Abort(abortUninitialized)
			}
			if s.node.frozen {
				tx.Abort(abortFrozen)
			}
			j := scanTx(tx, s.node, key)
			if j < 0 {
				result = false
				return
			}
			n := htm.Load(tx, &s.node.n)
			if j != n-1 {
				htm.Store(tx, &s.node.slots[j], htm.Load(tx, &s.node.slots[n-1]))
			}
			htm.Store(tx, &s.node.n, n-1)
			htm.Store(tx, &hd.buckets[i], bucketState{node: s.node, ver: s.ver + 1})
			result = true
		})
		if st == htm.Committed {
			t.inplaceHits.Add(1)
			if result {
				t.count.Add(-1)
			}
			return result
		}
	}
	r.Fallback()
	return t.removeFallback(key)
}

// Contains reports whether key is present. The non-transactional path is the
// degraded, lock-free lookup: scan, then double-check the (pointer, counter)
// pair and re-scan if it moved.
func (t *InplaceTable) Contains(key int64) bool {
	r := t.conSite.Begin(t.domain)
	for r.Next(0) {
		var result bool
		st := r.Try(func(tx *htm.Tx) {
			hd := htm.Load(tx, &t.head)
			i := index(key, hd.size)
			s := htm.Load(tx, &hd.buckets[i])
			if s.node == nil {
				tx.Abort(abortUninitialized)
			}
			if s.node.frozen {
				result = containsFrozen(s.node, key)
				return
			}
			result = scanTx(tx, s.node, key) >= 0
		})
		if st == htm.Committed {
			return result
		}
	}
	r.Fallback()
	h := t.handles.Get().(*epoch.Handle)
	h.Enter()
	defer func() { h.Exit(); t.handles.Put(h) }()
	for {
		hd := htm.Load(nil, &t.head)
		i := index(key, hd.size)
		if htm.Load(nil, &hd.buckets[i]).node == nil {
			t.initBucket(hd, i)
		}
		if result, ok := t.lookupOnce(hd, i, key); ok {
			return result
		}
	}
}

// lookupOnce performs one double-checked scan of bucket i; ok is false when
// the bucket moved mid-scan and the caller must retry.
func (t *InplaceTable) lookupOnce(hd *iphnode, i int, key int64) (result, ok bool) {
	s := htm.Load(nil, &hd.buckets[i])
	if s.node == nil {
		return false, false
	}
	if s.node.frozen {
		return containsFrozen(s.node, key), true
	}
	found := false
	n := htm.Load(nil, &s.node.n)
	if n > len(s.node.slots) {
		return false, false // torn read across a replacement; retry
	}
	for j := 0; j < n; j++ {
		if htm.Load(nil, &s.node.slots[j]) == key {
			found = true
			break
		}
	}
	// Double-check the (pointer, counter) pair (§3.3): if it moved, an
	// in-place update may have shifted elements under the scan.
	if htm.Load(nil, &hd.buckets[i]) != s {
		return false, false
	}
	return found, true
}

func containsFrozen(node *ipnode, key int64) bool {
	for _, v := range node.vals {
		if v == key {
			return true
		}
	}
	return false
}

// snapshot returns a consistent copy of bucket i's contents together with
// the state it was read at; ok=false means the caller should retry.
func (t *InplaceTable) snapshot(hd *iphnode, i int) (s bucketState, vals []int64, ok bool) {
	s = htm.Load(nil, &hd.buckets[i])
	if s.node == nil {
		return s, nil, false
	}
	if s.node.frozen {
		return s, s.node.vals, true
	}
	n := htm.Load(nil, &s.node.n)
	if n > len(s.node.slots) {
		return s, nil, false
	}
	vals = make([]int64, 0, n)
	for j := 0; j < n; j++ {
		vals = append(vals, htm.Load(nil, &s.node.slots[j]))
	}
	if htm.Load(nil, &hd.buckets[i]) != s {
		return s, nil, false
	}
	return s, vals, true
}

// bump adjusts the element count and applies the growth policy.
func (t *InplaceTable) bump(delta int64) {
	if c := t.count.Add(delta); delta > 0 {
		hd := htm.Load(nil, &t.head)
		if int(c) > growFactor*hd.size {
			t.resize(hd, true)
		}
	}
}

// insertFallback is the original copy-on-write insert, validated against the
// bucket counter so it serializes with in-place transactional updates.
func (t *InplaceTable) insertFallback(key int64) bool {
	h := t.handles.Get().(*epoch.Handle)
	h.Enter()
	defer func() { h.Exit(); t.handles.Put(h) }()
	for {
		hd := htm.Load(nil, &t.head)
		i := index(key, hd.size)
		s, vals, ok := t.snapshot(hd, i)
		if !ok {
			if s.node == nil {
				t.initBucket(hd, i)
			}
			continue
		}
		if s.node.frozen {
			continue // resize advanced the head
		}
		if contains64(vals, key) {
			return false
		}
		nn := t.newLive(max(minCapacity, 2*(len(vals)+1)), append(vals, key))
		if htm.CAS(nil, &hd.buckets[i], s, bucketState{node: nn, ver: s.ver + 1}) {
			t.bump(1)
			return true
		}
	}
}

func (t *InplaceTable) removeFallback(key int64) bool {
	h := t.handles.Get().(*epoch.Handle)
	h.Enter()
	defer func() { h.Exit(); t.handles.Put(h) }()
	for {
		hd := htm.Load(nil, &t.head)
		i := index(key, hd.size)
		s, vals, ok := t.snapshot(hd, i)
		if !ok {
			if s.node == nil {
				t.initBucket(hd, i)
			}
			continue
		}
		if s.node.frozen {
			continue
		}
		j := indexOf64(vals, key)
		if j < 0 {
			return false
		}
		out := make([]int64, 0, len(vals)-1)
		out = append(out, vals[:j]...)
		out = append(out, vals[j+1:]...)
		nn := t.newLive(max(minCapacity, 2*len(out)), out)
		if htm.CAS(nil, &hd.buckets[i], s, bucketState{node: nn, ver: s.ver + 1}) {
			t.count.Add(-1)
			return true
		}
	}
}

func contains64(vals []int64, k int64) bool { return indexOf64(vals, k) >= 0 }

func indexOf64(vals []int64, k int64) int {
	for i, v := range vals {
		if v == k {
			return i
		}
	}
	return -1
}

// initBucket ensures bucket i of table h is initialized, freezing and
// splitting or merging the predecessor's buckets as needed, and returns the
// resulting state.
func (t *InplaceTable) initBucket(h *iphnode, i int) bucketState {
	if s := htm.Load(nil, &h.buckets[i]); s.node != nil {
		return s
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
	nn := t.newLive(max(minCapacity, 2*len(vals)), vals)
	htm.CAS(nil, &h.buckets[i], bucketState{}, bucketState{node: nn, ver: 1})
	return htm.Load(nil, &h.buckets[i])
}

// freeze makes bucket i of table h immutable and returns its final contents.
func (t *InplaceTable) freeze(h *iphnode, i int) []int64 {
	for {
		s, vals, ok := t.snapshot(h, i)
		if !ok {
			if s.node == nil {
				t.initBucket(h, i)
			}
			continue
		}
		if s.node.frozen {
			return s.node.vals
		}
		fz := &ipnode{frozen: true, vals: vals}
		if htm.CAS(nil, &h.buckets[i], s, bucketState{node: fz, ver: s.ver + 1}) {
			return vals
		}
	}
}

func (t *InplaceTable) resize(hd *iphnode, grow bool) {
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
func (t *InplaceTable) Grow() { t.resize(htm.Load(nil, &t.head), true) }

// Shrink forces a halving of the current table.
func (t *InplaceTable) Shrink() { t.resize(htm.Load(nil, &t.head), false) }

// Size returns the current bucket count.
func (t *InplaceTable) Size() int { return htm.Load(nil, &t.head).size }

// Len returns the current element count.
func (t *InplaceTable) Len() int { return int(t.count.Load()) }

// Resizes returns the number of completed table replacements.
func (t *InplaceTable) Resizes() uint64 { return t.resizes.Load() }

// Keys returns a snapshot of the elements (quiescent use only; for tests).
func (t *InplaceTable) Keys() []int64 {
	hd := htm.Load(nil, &t.head)
	var out []int64
	for i := 0; i < hd.size; i++ {
		for {
			_, vals, ok := t.snapshot(hd, i)
			if ok {
				out = append(out, vals...)
				break
			}
			t.initBucket(hd, i)
		}
	}
	return out
}
