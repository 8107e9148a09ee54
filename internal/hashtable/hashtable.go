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
// That algorithm exists once, in algo.go: the original protocol, the prefix
// transactions and the composed adapters, over the memory contracts Mem and
// TxMem. Table implements Mem on atomics, PTOTable (pto.go) on htm Vars,
// and simds.SimHash on the modeled machine's words. What stays with each
// substrate is what pins its numbers: the growth trigger (here count >
// growFactor·size, which Len reads), lazy bucket initialization from
// construction, the attempt loops, and the modeled in-place variant.
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

// read is the bucket read of a runtime table.
func read(b *fnode) (Word, []int64, State) {
	switch {
	case b == nil:
		return Word{}, nil, Uninit
	case !b.ok:
		return Word{n: b}, b.vals, Frozen
	}
	return Word{n: b}, b.vals, Live
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
	head  atomic.Pointer[hnode]
	count atomic.Int64
	mgr   *epoch.Manager
	ops   sync.Pool // *op, one per concurrent operation
	free  sync.Pool // recycled []int64 backing arrays
	// resizes counts completed table replacements (diagnostic).
	resizes atomic.Uint64
}

// NewTable returns an empty table with the given initial bucket count
// (rounded up to a power of two; ≤ 0 selects DefaultBuckets).
func NewTable(buckets int) *Table {
	t := &Table{mgr: epoch.NewManager()}
	t.ops.New = func() any { return &op{t: t, h: t.mgr.Register()} }
	t.head.Store(newHNode(roundBuckets(buckets), nil))
	return t
}

// roundBuckets rounds a bucket count up to a power of two of at least 2;
// ≤ 0 selects DefaultBuckets.
func roundBuckets(n int) int {
	if n <= 0 {
		n = DefaultBuckets
	}
	return max(2, 1<<bits.Len(uint(n-1)))
}

// op is one operation's view of a Table: its epoch handle, through which
// Replace retires what it replaces. Pooled with the handle.
type op struct {
	t *Table
	h *epoch.Handle
}

// enter checks out an epoch handle and begins a protected operation.
func (t *Table) enter() *op {
	o := t.ops.Get().(*op)
	o.h.Enter()
	return o
}

func (t *Table) exit(o *op) {
	o.h.Exit()
	t.ops.Put(o)
}

// Insert adds key, reporting false if already present.
func (t *Table) Insert(key int64) bool {
	o := t.enter()
	defer t.exit(o)
	return Update(o, key, true)
}

// Remove deletes key, reporting false if absent.
func (t *Table) Remove(key int64) bool {
	o := t.enter()
	defer t.exit(o)
	return Update(o, key, false)
}

// Contains reports whether key is present: the original wait-free lookup.
func (t *Table) Contains(key int64) bool {
	o := t.enter()
	defer t.exit(o)
	return Contains(o, key)
}

// The Table's Mem: the buckets' atomic pointers.

func (o *op) Head() Gen                                { return Gen{lf: o.t.head.Load()} }
func (*op) Size(g Gen) int                             { return g.lf.size }
func (*op) Pred(g Gen) Gen                             { return Gen{lf: g.lf.pred.Load()} }
func (*op) Unlink(g Gen)                               { g.lf.pred.Store(nil) }
func (*op) Uninit(g Gen, i int) bool                   { return g.lf.buckets[i].Load() == nil }
func (*op) Bucket(g Gen, i int) (Word, []int64, State) { return read(g.lf.buckets[i].Load()) }

func (*op) Scan(g Gen, i int, key int64) (found, ok bool) {
	b := g.lf.buckets[i].Load()
	return b != nil && Has(b.vals, key), b != nil
}

// Replace builds the copy in an array the reclaimer has returned, and
// retires the replaced node's array through the operation's handle.
func (o *op) Replace(g Gen, i int, w Word, vals []int64, key int64, add bool) bool {
	nv := Cow(o.t.newVals(cowLen(vals, add)), vals, key, add)
	if !g.lf.buckets[i].CompareAndSwap(w.n, &fnode{vals: nv, ok: true}) {
		return false
	}
	t, old := o.t, w.n.vals
	o.h.Retire(func() {
		v := old[:0]
		t.free.Put(&v)
	})
	return true
}

func (*op) Freeze(g Gen, i int, w Word, vals []int64) bool {
	return g.lf.buckets[i].CompareAndSwap(w.n, &fnode{vals: vals, ok: false})
}

func (*op) Buf() []int64 { return nil }

func (*op) Init(g Gen, i int, vals []int64) {
	g.lf.buckets[i].CompareAndSwap(nil, &fnode{vals: vals, ok: true})
}

func (o *op) Install(g Gen, size int) {
	if o.t.head.CompareAndSwap(g.lf, newHNode(size, g.lf)) {
		o.t.resizes.Add(1)
	}
}

// Count grows the table when the count exceeds growFactor per bucket.
func (o *op) Count(_ int64, add bool) {
	if !add {
		o.t.count.Add(-1)
		return
	}
	c := o.t.count.Add(1)
	if hd := o.t.head.Load(); int(c) > growFactor*hd.size {
		Resize(o, Gen{lf: hd}, true)
	}
}

// newVals returns an empty value slice with at least the given capacity,
// reusing a retired backing array when one is available.
func (t *Table) newVals(capHint int) []int64 {
	if v, ok := t.free.Get().(*[]int64); ok && cap(*v) >= capHint {
		return (*v)[:0]
	}
	return make([]int64, 0, capHint)
}

// Grow forces a doubling of the current table.
func (t *Table) Grow() {
	o := t.enter()
	defer t.exit(o)
	Resize(o, o.Head(), true)
}

// Shrink forces a halving of the current table.
func (t *Table) Shrink() {
	o := t.enter()
	defer t.exit(o)
	Resize(o, o.Head(), false)
}

// Size returns the current bucket count.
func (t *Table) Size() int { return t.head.Load().size }

// Len returns the current element count.
func (t *Table) Len() int { return int(t.count.Load()) }

// Resizes returns the number of completed table replacements.
func (t *Table) Resizes() uint64 { return t.resizes.Load() }

// Keys returns a snapshot of the elements (quiescent use only; for tests).
func (t *Table) Keys() []int64 {
	o := t.enter()
	defer t.exit(o)
	return Keys(o)
}
