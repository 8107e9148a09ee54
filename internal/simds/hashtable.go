package simds

import (
	"slices"

	"repro/internal/hashtable"
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/simtxn"
	"repro/internal/speculate"
)

// This file hosts the dynamic-sized freezable-set hash table (§3.3, §4.5,
// Figure 4) on the simulated machine. The algorithm is internal/hashtable's
// own — the copy-on-write protocol, its prefix transactions and its
// composed adapters run from hashtable/algo.go over the modeled words of
// the hashtable.Mem and TxMem below. A bucket's read is one call of
// theirs, so the modeled loads keep the order the figures were captured
// with. What stays here is what pins the figures: the growth trigger (a
// bucket over hashBucketThreshold values), construction (every bucket
// initialized up front), the attempt loops, and HashInplace's in-place
// prefix body.
//
// Buckets live in a table generation (hnode); each bucket word packs (fset
// node address << 16 | counter). The lock-free baseline updates buckets by
// copy-on-write — allocate, copy, CAS — with every operation (lookups
// included) bracketed by the epoch reclaimer and replaced nodes retired
// through it; that allocator and reclaimer traffic is precisely what Figure
// 4 shows PTO removing. Resizes install a new generation whose buckets
// initialize lazily by freezing and splitting/merging the predecessor's.
//
// HashPTO wraps the unchanged copy-on-write operations in prefix
// transactions: updates still allocate and copy (little gain), but
// transactional lookups skip the reclaimer entirely. HashInplace is the
// §3.3 algorithm modification: transactional updates write into the bucket
// array in place and bump the bucket counter — no allocation at all — while
// non-transactional lookups degrade from wait-free to lock-free by
// double-checking the (pointer, counter) word after scanning.

// HashKind selects the hash table variant.
type HashKind int

const (
	// HashLF is the lock-free copy-on-write baseline.
	HashLF HashKind = iota
	// HashPTO is the plain prefix-transaction application.
	HashPTO
	// HashInplace is PTO plus speculative in-place updates.
	HashInplace
)

// hashBucketThreshold triggers a doubling when a bucket exceeds this size.
// It sits well above the expected load so the balls-in-bins tail does not
// cause runaway doubling.
const hashBucketThreshold = 32

// fset node layout: +0 flags (bit 0 = live/unfrozen), +1 len, +2.. values.
const (
	fsFlags = iota
	fsLen
	fsVals
)

// hnode layout: +0 size, +1 pred, +2.. bucket words.
const (
	hnSize = iota
	hnPred
	hnBuckets
)

func hbNode(w uint64) sim.Addr { return sim.Addr(w >> 16) }
func hbCtr(w uint64) uint64    { return w & 0xFFFF }
func hbPack(n sim.Addr, ctr uint64) uint64 {
	return uint64(n)<<16 | ctr&0xFFFF
}

// bucketWord is the address of bucket i's word in generation g.
func bucketWord(g hashtable.Gen, i int) sim.Addr {
	return sim.Addr(g.Addr) + hnBuckets + sim.Addr(i)
}

// SimHash is the simulated hash table.
type SimHash struct {
	kind     HashKind
	headPtr  sim.Addr // word holding the current hnode address
	epoch    *Epoch
	retirers []*Retirer
	updSite  *simspec.Site
	lookSite *simspec.Site
	mems     []hashMem // per thread
}

// hashSlotLines is how many epoch slot lines a table allocates whatever its
// thread count: the simulator's limit of 16 threads. The table uses the first
// threads of them and keeps the rest in the capacity of its epoch's slot
// slice, for Clone. The padding keeps every address allocated after the
// slots, and so a prefilled table's memory image, the same at every thread
// count.
const hashSlotLines = 16

// NewSimHash builds an empty table with the given initial bucket count
// (power of two) using setup thread t.
func NewSimHash(t *sim.Thread, kind HashKind, buckets, threads int) *SimHash {
	epoch := NewEpoch(t, hashSlotLines)
	epoch.slots = epoch.slots[:threads:hashSlotLines]
	h := &SimHash{kind: kind, epoch: epoch, mems: make([]hashMem, threads)}
	for i := 0; i < threads; i++ {
		h.retirers = append(h.retirers, NewRetirer(h.epoch))
	}
	h.headPtr = t.Alloc(1)
	hn := t.Alloc(hnBuckets + buckets)
	t.Store(hn+hnSize, uint64(buckets))
	t.Store(hn+hnPred, 0)
	for i := 0; i < buckets; i++ {
		n := h.newNode(t, nil)
		t.Store(hn+hnBuckets+sim.Addr(i), hbPack(n, 1))
	}
	t.Store(h.headPtr, uint64(hn))
	return h.WithPolicy(simspec.DefaultPolicy())
}

// Clone returns the table for a run of the given number of threads on a
// clone of the machine h was built on (sim.Machine.Clone). Its Go-side state
// is what a table built for that many threads and filled the same way would
// hold: the same simulated addresses, the epoch's first threads slot lines,
// each thread's retirement batch and buffers as h holds them (empty for
// threads h has not got), and sites whose adaptive windows start where h's
// stand. h is left as it was.
func (h *SimHash) Clone(threads int) *SimHash {
	c := &SimHash{
		kind:     h.kind,
		headPtr:  h.headPtr,
		epoch:    &Epoch{global: h.epoch.global, slots: h.epoch.slots[:threads]},
		updSite:  h.updSite.Clone(),
		lookSite: h.lookSite.Clone(),
		mems:     make([]hashMem, threads),
	}
	for i := 0; i < threads; i++ {
		r := NewRetirer(c.epoch)
		if i < len(h.retirers) {
			r.batch = slices.Clone(h.retirers[i].batch)
			m := &h.mems[i]
			c.mems[i] = hashMem{snap: slices.Clone(m.snap), vals: slices.Clone(m.vals)}
		}
		c.retirers = append(c.retirers, r)
	}
	return c
}

// WithPolicy installs the speculation policy for the table's two sites
// (3 attempts per level by default, the paper-era tuning). Every explicit
// abort here — uninitialized bucket, frozen bucket, in-place overflow — is
// transient slow-path state another thread resolves quickly, so the level
// retries on explicit. Set before use.
func (h *SimHash) WithPolicy(p speculate.Policy) *SimHash {
	lv := speculate.Level{Name: "pto", Attempts: 3, RetryExplicit: true}
	h.updSite = simspec.New("simhash/update", p, lv)
	h.lookSite = simspec.New("simhash/lookup", p, lv)
	return h
}

// newNode allocates a bucket node holding vals. The in-place variant sizes
// it with slack for speculative writes; the copy-on-write variants size it
// exactly.
func (h *SimHash) newNode(t *sim.Thread, vals []int64) sim.Addr {
	capacity := len(vals)
	if h.kind == HashInplace {
		capacity = 2*len(vals) + 4
	}
	n := t.Alloc(fsVals + capacity)
	t.Store(n+fsFlags, uint64(capacity)<<16|1) // capacity in the upper bits
	t.Store(n+fsLen, uint64(len(vals)))
	for i, v := range vals {
		t.Store(n+fsVals+sim.Addr(i), uint64(v))
	}
	return n
}

// Insert adds key, reporting false if present.
func (h *SimHash) Insert(t *sim.Thread, key uint64) bool { return h.apply(t, key, true) }

// Remove deletes key, reporting false if absent.
func (h *SimHash) Remove(t *sim.Thread, key uint64) bool { return h.apply(t, key, false) }

// apply performs an insert (add=true) or remove: the prefix transaction,
// then the original protocol, epoch-bracketed.
func (h *SimHash) apply(t *sim.Thread, key uint64, add bool) bool {
	m := h.mem(t)
	if h.kind != HashLF {
		r := h.updSite.Begin(t)
		for r.Next(0) {
			var result bool
			st := r.Try(func() { result = hashtable.TxUpdate(m, m, m.Head(), int64(key), add) })
			if st == sim.OK {
				if result {
					m.Count(int64(key), add)
				}
				return result
			}
		}
		r.Fallback()
	}
	h.epoch.Enter(t)
	defer h.epoch.Exit(t)
	return hashtable.Update(m, int64(key), add)
}

// Contains reports membership. The PTO variants first try a transactional
// lookup that touches no reclaimer state; the fallback (and the baseline)
// is the original lookup inside an epoch bracket — wait-free for the
// copy-on-write variants, lock-free (double-checked) for the in-place one.
func (h *SimHash) Contains(t *sim.Thread, key uint64) bool {
	m := h.mem(t)
	if h.kind != HashLF {
		r := h.lookSite.Begin(t)
		for r.Next(0) {
			var result bool
			st := r.Try(func() { result = hashtable.TxContains(m, m, m.Head(), int64(key)) })
			if st == sim.OK {
				return result
			}
		}
		r.Fallback()
	}
	h.epoch.Enter(t)
	defer h.epoch.Exit(t)
	return hashtable.Contains(m, int64(key))
}

// Stabilize initializes every bucket of the current generation (a warmup
// helper for benchmarks: a long-lived table reaches this state on its own).
func (h *SimHash) Stabilize(t *sim.Thread) {
	m := h.mem(t)
	g := m.Head()
	hashtable.Complete(m, g, m.Size(g))
}

// Keys returns a snapshot of the elements (setup/verification helper).
func (h *SimHash) Keys(t *sim.Thread) []uint64 {
	var out []uint64
	for _, k := range hashtable.Keys(h.mem(t)) {
		out = append(out, uint64(k))
	}
	return out
}

// hashMem is thread t's hashtable.Mem on h, and its TxMem in a prefix
// transaction, whose loads the machine makes transactional. Its buffers are
// reused from operation to operation, so that copying a bucket's values
// costs the host no allocation: snap backs the values a bucket read
// returns, good until the thread's next one; vals backs the bucket an
// update builds from them. c is the composed operation of hashCtx.
type hashMem struct {
	h          *SimHash
	t          *sim.Thread
	c          *simtxn.Ctx
	snap, vals []int64
}

// mem is t's hashMem on h.
func (h *SimHash) mem(t *sim.Thread) *hashMem {
	m := &h.mems[t.ID()]
	m.h, m.t = h, t
	return m
}

func (m *hashMem) Head() hashtable.Gen { return hashtable.Gen{Addr: m.t.Load(m.h.headPtr)} }

func (m *hashMem) Size(g hashtable.Gen) int {
	return int(m.t.Load(sim.Addr(g.Addr) + hnSize))
}

func (m *hashMem) Pred(g hashtable.Gen) hashtable.Gen {
	return hashtable.Gen{Addr: m.t.Load(sim.Addr(g.Addr) + hnPred)}
}

func (m *hashMem) Unlink(g hashtable.Gen) { m.t.Store(sim.Addr(g.Addr)+hnPred, 0) }

func (m *hashMem) Uninit(g hashtable.Gen, i int) bool {
	return hbNode(m.t.Load(bucketWord(g, i))) == 0
}

// Bucket reads the word, the flags, the length and every value; the
// in-place variant double-checks a live bucket's (pointer, counter) word,
// since in-place updates shift values under a scan.
func (m *hashMem) Bucket(g hashtable.Gen, i int) (hashtable.Word, []int64, hashtable.State) {
	t, bw := m.t, bucketWord(g, i)
	w := t.Load(bw)
	n := hbNode(w)
	if n == 0 {
		return hashtable.Word{Bits: w}, nil, hashtable.Uninit
	}
	live := t.Load(n+fsFlags)&1 == 1
	ln := t.Load(n + fsLen)
	vals := m.snap[:0]
	for j := uint64(0); j < ln; j++ {
		vals = append(vals, int64(t.Load(n+fsVals+sim.Addr(j))))
	}
	m.snap = vals
	switch {
	case !live:
		return hashtable.Word{Bits: w}, vals, hashtable.Frozen
	case m.h.kind == HashInplace && t.Load(bw) != w:
		return hashtable.Word{Bits: w}, nil, hashtable.Moved
	}
	return hashtable.Word{Bits: w}, vals, hashtable.Live
}

// Scan reads the word, the length and the values up to key, and then, in
// the in-place variant, a live bucket's word again.
func (m *hashMem) Scan(g hashtable.Gen, i int, key int64) (found, ok bool) {
	t, bw := m.t, bucketWord(g, i)
	w := t.Load(bw)
	n := hbNode(w)
	if n == 0 {
		return false, false
	}
	at, _ := scan(t, n, key)
	if m.h.kind == HashInplace && t.Load(n+fsFlags)&1 == 1 && t.Load(bw) != w {
		return false, false
	}
	return at >= 0, true
}

// scan reads node n's length and its values up to key, reporting key's
// position (-1: absent) and the length.
func scan(t *sim.Thread, n sim.Addr, key int64) (at, ln int) {
	l := t.Load(n + fsLen)
	for j := uint64(0); j < l; j++ {
		if t.Load(n+fsVals+sim.Addr(j)) == uint64(key) {
			return int(j), int(l)
		}
	}
	return -1, int(l)
}

// Replace retires the replaced node through the epoch, or frees its own
// copy when it loses the CAS.
func (m *hashMem) Replace(g hashtable.Gen, i int, w hashtable.Word, vals []int64, key int64, add bool) bool {
	t := m.t
	nn := m.copyNode(vals, key, add)
	if t.CAS(bucketWord(g, i), w.Bits, hbPack(nn, hbCtr(w.Bits)+1)) {
		m.h.retirers[t.ID()].Retire(t, hbNode(w.Bits), fsVals+len(vals))
		return true
	}
	t.Free(nn, fsVals+len(m.vals))
	return false
}

// Freeze installs an exact-size copy whose flags word is 0.
func (m *hashMem) Freeze(g hashtable.Gen, i int, w hashtable.Word, vals []int64) bool {
	t := m.t
	fz := t.Alloc(fsVals + len(vals))
	t.Store(fz+fsFlags, 0)
	t.Store(fz+fsLen, uint64(len(vals)))
	for j, v := range vals {
		t.Store(fz+fsVals+sim.Addr(j), uint64(v))
	}
	return t.CAS(bucketWord(g, i), w.Bits, hbPack(fz, hbCtr(w.Bits)+1))
}

// Buf takes the thread's build buffer rather than borrowing it: initBucket
// may come back here through freeze for a bucket of the predecessor, and
// that nested call finds none and grows its own.
func (m *hashMem) Buf() []int64 {
	b := m.vals[:0]
	m.vals = nil
	return b
}

// Init copies vals into a new node and gives the buffer back.
func (m *hashMem) Init(g hashtable.Gen, i int, vals []int64) {
	n := m.h.newNode(m.t, vals)
	m.vals = vals
	m.t.CAS(bucketWord(g, i), hbPack(0, 0), hbPack(n, 1))
}

func (m *hashMem) Install(g hashtable.Gen, size int) {
	t := m.t
	nh := t.Alloc(hnBuckets + size)
	t.Store(nh+hnSize, uint64(size))
	t.Store(nh+hnPred, g.Addr)
	t.CAS(m.h.headPtr, g.Addr, uint64(nh))
}

// Count applies the growth policy after an insert: double when the key's
// bucket holds more than hashBucketThreshold values.
func (m *hashMem) Count(key int64, add bool) {
	if !add {
		return
	}
	g := m.Head()
	w := m.t.Load(bucketWord(g, hashtable.Index(key, m.Size(g))))
	if n := hbNode(w); n != 0 && m.t.Load(n+fsLen) > hashBucketThreshold {
		hashtable.Resize(m, g, true)
	}
}

// Find reads the word, the flags and the values up to key.
func (m *hashMem) Find(g hashtable.Gen, i int, key int64) (hashtable.Word, int, int, hashtable.State) {
	t := m.t
	w := t.Load(bucketWord(g, i))
	n := hbNode(w)
	if n == 0 {
		return hashtable.Word{Bits: w}, 0, -1, hashtable.Uninit
	}
	if t.Load(n+fsFlags)&1 == 0 {
		return hashtable.Word{Bits: w}, 0, -1, hashtable.Frozen
	}
	at, ln := scan(t, n, key)
	return hashtable.Word{Bits: w}, ln, at, hashtable.Live
}

// Lookup reads the word and the values up to key: strong atomicity keeps
// the view consistent, so nothing is double-checked.
func (m *hashMem) Lookup(g hashtable.Gen, i int, key int64) (bool, hashtable.State) {
	n := hbNode(m.t.Load(bucketWord(g, i)))
	if n == 0 {
		return false, hashtable.Uninit
	}
	at, _ := scan(m.t, n, key)
	return at >= 0, hashtable.Live
}

// Put stages the update. The plain PTO variant keeps copy-on-write
// (allocation and copy inside the transaction); the in-place variant is
// §3.3's modification: it writes into the node's array and bumps the bucket
// counter, allocating nothing. Its nodes were allocated with slack; a full
// one aborts (3), and the fallback replaces it with a larger one.
func (m *hashMem) Put(g hashtable.Gen, i int, w hashtable.Word, ln, at int, key int64, add bool) {
	t, bw, n := m.t, bucketWord(g, i), hbNode(w.Bits)
	if m.h.kind == HashInplace {
		l := uint64(ln)
		if add {
			if l == t.Load(n+fsFlags)>>16 {
				t.TxAbort(3)
			}
			t.Store(n+fsVals+sim.Addr(l), uint64(key))
			t.Store(n+fsLen, l+1)
		} else {
			if at != ln-1 {
				t.Store(n+fsVals+sim.Addr(at), t.Load(n+fsVals+sim.Addr(l-1)))
			}
			t.Store(n+fsLen, l-1)
		}
		t.Store(bw, hbPack(n, hbCtr(w.Bits)+1))
		return
	}
	vals := m.snap[:0]
	for j := 0; j < ln; j++ {
		vals = append(vals, int64(t.Load(n+fsVals+sim.Addr(j))))
	}
	m.snap = vals
	t.Store(bw, hbPack(m.copyNode(vals, key, add), hbCtr(w.Bits)+1))
}

// copyNode allocates the node of vals with key added or removed.
func (m *hashMem) copyNode(vals []int64, key int64, add bool) sim.Addr {
	m.vals = hashtable.Cow(m.vals[:0], vals, key, add)
	return m.h.newNode(m.t, m.vals)
}

func (m *hashMem) Abort(code int)    { m.t.TxAbort(code) }
func (m *hashMem) Speculative() bool { return true }
