// Package hashtable implements the dynamic-sized nonblocking hash table of
// Liu, Zhang, and Spear (PODC 2014), the structure §3.3/§4.5 of the paper
// accelerates, plus its PTO variant. The algorithm-modified PTO+Inplace
// variant of Figure 4 exists only on the modeled machine, as
// simds.HashInplace.
//
// Each bucket is a freezable set: an immutable array of elements behind an
// atomic pointer. Updates are copy-on-write — build a new array, CAS the
// bucket pointer — and lookups are wait-free scans. Resizing installs a new
// bucket table whose buckets initialize lazily by freezing the predecessor
// table's buckets (CASing in a frozen copy that no update will replace) and
// splitting or merging their contents. An update that finds its bucket
// frozen re-reads the table head, which by then has advanced.
//
// The baseline interacts with an epoch-based reclaimer exactly as the
// paper's C++ port does: every operation — including read-only lookups —
// brackets itself with Enter/Exit (two ordered stores each way), and
// replaced bucket arrays are retired and recycled through a free pool once a
// grace period passes. §4.5's observation is that this reclaimer traffic is
// a dominant cost of short hash table operations and vanishes inside a
// hardware transaction; the PTO variant in pto.go realizes that.
package hashtable

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
)

// DefaultBuckets is the initial table size.
const DefaultBuckets = 16

// growFactor triggers a doubling when count exceeds growFactor*size.
const growFactor = 6

// fnode is one immutable state of a freezable set. ok=false means frozen:
// no update may replace the node, and its contents are final.
type fnode struct {
	vals []int64
	ok   bool
}

func (n *fnode) contains(k int64) bool {
	for _, v := range n.vals {
		if v == k {
			return true
		}
	}
	return false
}

// hnode is one generation of the bucket table.
type hnode struct {
	size    int
	buckets []atomic.Pointer[fnode]
	pred    atomic.Pointer[hnode]
}

func newHNode(size int, pred *hnode) *hnode {
	h := &hnode{size: size, buckets: make([]atomic.Pointer[fnode], size)}
	h.pred.Store(pred)
	return h
}

// Table is the lock-free baseline hash table (a set of int64 keys).
type Table struct {
	head    atomic.Pointer[hnode]
	count   atomic.Int64
	mgr     *epoch.Manager
	handles sync.Pool // *epoch.Handle, one per concurrent operation
	free    sync.Pool // recycled []int64 backing arrays
	// resizes counts completed table replacements (diagnostic).
	resizes atomic.Uint64
}

// NewTable returns an empty table with the given initial bucket count
// (rounded up to a power of two; ≤ 0 selects DefaultBuckets).
func NewTable(buckets int) *Table {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	buckets = 1 << bits.Len(uint(buckets-1))
	if buckets < 2 {
		buckets = 2
	}
	t := &Table{mgr: epoch.NewManager()}
	t.handles.New = func() any { return t.mgr.Register() }
	t.head.Store(newHNode(buckets, nil))
	return t
}

// index hashes k into [0, size); size must be a power of two. Low-bit
// masking keeps the split/merge mapping simple: growing sends the keys of
// old bucket j to new buckets j and j+oldSize, so a new bucket i draws from
// old bucket i mod oldSize, and halving merges buckets i and i+newSize.
func index(k int64, size int) int {
	x := uint64(k) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int(x & uint64(size-1))
}

// enter checks out an epoch handle and begins a protected operation.
func (t *Table) enter() *epoch.Handle {
	h := t.handles.Get().(*epoch.Handle)
	h.Enter()
	return h
}

func (t *Table) exit(h *epoch.Handle) {
	h.Exit()
	t.handles.Put(h)
}

// newVals returns a value slice with the given capacity hint, reusing a
// retired backing array when one is available.
func (t *Table) newVals(capHint int) []int64 {
	if v, ok := t.free.Get().(*[]int64); ok && cap(*v) >= capHint {
		return (*v)[:0]
	}
	return make([]int64, 0, capHint)
}

// retire hands a replaced node's backing array to the reclaimer; it returns
// to the free pool after a grace period.
func (t *Table) retire(h *epoch.Handle, old *fnode) {
	vals := old.vals
	h.Retire(func() {
		v := vals[:0]
		t.free.Put(&v)
	})
}

// initBucket ensures bucket i of table h is initialized, freezing and
// splitting or merging the predecessor's buckets as needed.
func (t *Table) initBucket(h *hnode, i int) *fnode {
	if b := h.buckets[i].Load(); b != nil {
		return b
	}
	pred := h.pred.Load()
	var vals []int64
	if pred != nil {
		if h.size == pred.size*2 {
			// Doubling: bucket i receives the matching half of the parent.
			src := t.freeze(pred, i%pred.size)
			for _, k := range src {
				if index(k, h.size) == i {
					vals = append(vals, k)
				}
			}
		} else {
			// Halving: bucket i merges parent buckets i and i+size.
			vals = append(vals, t.freeze(pred, i)...)
			vals = append(vals, t.freeze(pred, i+h.size)...)
		}
	}
	nb := &fnode{vals: vals, ok: true}
	if h.buckets[i].CompareAndSwap(nil, nb) {
		return nb
	}
	return h.buckets[i].Load()
}

// freeze makes bucket i of table h immutable and returns its final contents.
func (t *Table) freeze(h *hnode, i int) []int64 {
	for {
		b := h.buckets[i].Load()
		if b == nil {
			b = t.initBucket(h, i)
		}
		if !b.ok {
			return b.vals
		}
		if h.buckets[i].CompareAndSwap(b, &fnode{vals: b.vals, ok: false}) {
			return b.vals
		}
	}
}

// Insert adds key, reporting false if already present.
func (t *Table) Insert(key int64) bool {
	h := t.enter()
	defer t.exit(h)
	for {
		hd := t.head.Load()
		i := index(key, hd.size)
		b := hd.buckets[i].Load()
		if b == nil {
			b = t.initBucket(hd, i)
		}
		if !b.ok {
			continue // frozen: a resize advanced the head; re-read it
		}
		if b.contains(key) {
			return false
		}
		vals := append(t.newVals(len(b.vals)+1), b.vals...)
		vals = append(vals, key)
		if hd.buckets[i].CompareAndSwap(b, &fnode{vals: vals, ok: true}) {
			t.retire(h, b)
			if c := t.count.Add(1); int(c) > growFactor*hd.size {
				t.resize(hd, true)
			}
			return true
		}
	}
}

// Remove deletes key, reporting false if absent.
func (t *Table) Remove(key int64) bool {
	h := t.enter()
	defer t.exit(h)
	for {
		hd := t.head.Load()
		i := index(key, hd.size)
		b := hd.buckets[i].Load()
		if b == nil {
			b = t.initBucket(hd, i)
		}
		if !b.ok {
			continue
		}
		if !b.contains(key) {
			return false
		}
		vals := t.newVals(len(b.vals))
		for _, v := range b.vals {
			if v != key {
				vals = append(vals, v)
			}
		}
		if hd.buckets[i].CompareAndSwap(b, &fnode{vals: vals, ok: true}) {
			t.retire(h, b)
			t.count.Add(-1)
			return true
		}
	}
}

// Contains reports whether key is present. It never initializes buckets: an
// uninitialized bucket is resolved by reading the (complete) predecessor
// table, keeping the lookup wait-free as in the original algorithm.
func (t *Table) Contains(key int64) bool {
	h := t.enter()
	defer t.exit(h)
	hd := t.head.Load()
	i := index(key, hd.size)
	if b := hd.buckets[i].Load(); b != nil {
		return b.contains(key)
	}
	pred := hd.pred.Load()
	if pred == nil {
		// The predecessor was unlinked between our two loads, which implies
		// the bucket has been initialized by now (rare race).
		return t.initBucket(hd, i).contains(key)
	}
	// The predecessor table is complete (the resizer initializes every
	// bucket before installing a successor), so read it directly.
	if hd.size == pred.size*2 {
		return pred.buckets[index(key, pred.size)].Load().contains(key)
	}
	if pred.buckets[i].Load().contains(key) {
		return true
	}
	return pred.buckets[i+hd.size].Load().contains(key)
}

// resize installs a new table generation; grow doubles, otherwise halves.
// The current table's buckets are fully initialized first so the new
// generation's predecessor is complete and the older chain can be unlinked.
func (t *Table) resize(hd *hnode, grow bool) {
	if t.head.Load() != hd {
		return // someone already replaced this generation
	}
	if !grow && hd.size == 2 {
		return
	}
	for i := 0; i < hd.size; i++ {
		t.initBucket(hd, i)
	}
	hd.pred.Store(nil) // the chain behind hd is no longer needed
	size := hd.size * 2
	if !grow {
		size = hd.size / 2
	}
	if t.head.CompareAndSwap(hd, newHNode(size, hd)) {
		t.resizes.Add(1)
	}
}

// Grow forces a doubling of the current table.
func (t *Table) Grow() { t.resize(t.head.Load(), true) }

// Shrink forces a halving of the current table.
func (t *Table) Shrink() { t.resize(t.head.Load(), false) }

// Size returns the current bucket count.
func (t *Table) Size() int { return t.head.Load().size }

// Len returns the current element count.
func (t *Table) Len() int { return int(t.count.Load()) }

// Resizes returns the number of completed table replacements.
func (t *Table) Resizes() uint64 { return t.resizes.Load() }

// Keys returns a snapshot of the elements (quiescent use only; for tests).
func (t *Table) Keys() []int64 {
	hd := t.head.Load()
	var out []int64
	for i := 0; i < hd.size; i++ {
		b := t.initBucket(hd, i)
		for _, v := range b.vals {
			out = append(out, v)
		}
	}
	return out
}
