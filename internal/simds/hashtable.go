package simds

import (
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// This file hosts the dynamic-sized freezable-set hash table (§3.3, §4.5,
// Figure 4) on the simulated machine.
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

// SimHash is the simulated hash table.
type SimHash struct {
	kind     HashKind
	headPtr  sim.Addr // word holding the current hnode address
	epoch    *Epoch
	retirers []*Retirer
	updSite  *simspec.Site
	lookSite *simspec.Site
	scratch  []hashScratch // per thread
}

// hashScratch is one thread's Go-side buffers, reused from operation to
// operation so that copying a bucket's values costs the host no allocation.
// snap backs the values snapshot returns, good until the thread's next
// snapshot; vals backs the bucket an operation builds from them.
type hashScratch struct{ snap, vals []uint64 }

// NewSimHash builds an empty table with the given initial bucket count
// (power of two) using setup thread t.
func NewSimHash(t *sim.Thread, kind HashKind, buckets, threads int) *SimHash {
	h := &SimHash{kind: kind, epoch: NewEpoch(t, threads), scratch: make([]hashScratch, threads)}
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
func (h *SimHash) newNode(t *sim.Thread, vals []uint64) sim.Addr {
	capacity := len(vals)
	if h.kind == HashInplace {
		capacity = 2*len(vals) + 4
	}
	n := t.Alloc(fsVals + capacity)
	t.Store(n+fsFlags, uint64(capacity)<<16|1) // capacity in the upper bits
	t.Store(n+fsLen, uint64(len(vals)))
	for i, v := range vals {
		t.Store(n+fsVals+sim.Addr(i), v)
	}
	return n
}

func hashIndex(key uint64, size uint64) sim.Addr {
	x := key + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return sim.Addr(x & (size - 1))
}

// bucketWordAddr returns the address of bucket i's word in generation hn.
func bucketWordAddr(hn sim.Addr, i sim.Addr) sim.Addr { return hn + hnBuckets + i }

// snapshot reads bucket i consistently (double-checked against the bucket
// word) and returns the observed word and values; ok=false means retry. The
// values are in the thread's scratch: the next snapshot overwrites them.
func (h *SimHash) snapshot(t *sim.Thread, hn sim.Addr, i sim.Addr) (w uint64, vals []uint64, live bool, ok bool) {
	w = t.Load(bucketWordAddr(hn, i))
	n := hbNode(w)
	if n == 0 {
		return w, nil, false, false
	}
	live = t.Load(n+fsFlags)&1 == 1
	ln := t.Load(n + fsLen)
	sc := &h.scratch[t.ID()]
	vals = sc.snap[:0]
	for j := uint64(0); j < ln; j++ {
		vals = append(vals, t.Load(n+fsVals+sim.Addr(j)))
	}
	sc.snap = vals
	if h.kind == HashInplace && live {
		// In-place mutations shift values under a scan; double-check the
		// (pointer, counter) word.
		if t.Load(bucketWordAddr(hn, i)) != w {
			return w, nil, live, false
		}
	}
	return w, vals, live, true
}

// initBucket initializes bucket i of generation hn from its predecessor.
func (h *SimHash) initBucket(t *sim.Thread, hn sim.Addr, i sim.Addr) {
	if hbNode(t.Load(bucketWordAddr(hn, i))) != 0 {
		return
	}
	size := t.Load(hn + hnSize)
	pred := sim.Addr(t.Load(hn + hnPred))
	// freeze may come back here for a bucket of pred, so the buffer is taken,
	// not borrowed: the nested call finds none and grows its own.
	sc := &h.scratch[t.ID()]
	vals := sc.vals[:0]
	sc.vals = nil
	if pred != 0 {
		psize := t.Load(pred + hnSize)
		if size == psize*2 {
			src := h.freeze(t, pred, i&sim.Addr(psize-1))
			for _, k := range src {
				if hashIndex(k, size) == i {
					vals = append(vals, k)
				}
			}
		} else {
			vals = append(vals, h.freeze(t, pred, i)...)
			vals = append(vals, h.freeze(t, pred, i+sim.Addr(size))...)
		}
	}
	n := h.newNode(t, vals)
	sc.vals = vals
	t.CAS(bucketWordAddr(hn, i), hbPack(0, 0), hbPack(n, 1))
}

// freeze makes bucket i of generation hn immutable and returns its final
// contents.
func (h *SimHash) freeze(t *sim.Thread, hn sim.Addr, i sim.Addr) []uint64 {
	for {
		w, vals, live, ok := h.snapshot(t, hn, i)
		if !ok {
			if hbNode(w) == 0 {
				h.initBucket(t, hn, i)
			}
			continue
		}
		if !live {
			return vals
		}
		fz := t.Alloc(fsVals + len(vals))
		t.Store(fz+fsFlags, 0)
		t.Store(fz+fsLen, uint64(len(vals)))
		for j, v := range vals {
			t.Store(fz+fsVals+sim.Addr(j), v)
		}
		if t.CAS(bucketWordAddr(hn, i), w, hbPack(fz, hbCtr(w)+1)) {
			return vals
		}
	}
}

// resize installs a new generation (grow doubles, else halves).
func (h *SimHash) resize(t *sim.Thread, hn sim.Addr, grow bool) {
	if sim.Addr(t.Load(h.headPtr)) != hn {
		return
	}
	size := t.Load(hn + hnSize)
	if !grow && size == 2 {
		return
	}
	for i := sim.Addr(0); i < sim.Addr(size); i++ {
		h.initBucket(t, hn, i)
	}
	t.Store(hn+hnPred, 0)
	nsize := size * 2
	if !grow {
		nsize = size / 2
	}
	nh := t.Alloc(hnBuckets + int(nsize))
	t.Store(nh+hnSize, nsize)
	t.Store(nh+hnPred, uint64(hn))
	t.CAS(h.headPtr, uint64(hn), uint64(nh))
}

func hashContains(vals []uint64, key uint64) bool {
	for _, v := range vals {
		if v == key {
			return true
		}
	}
	return false
}

// apply performs an insert (add=true) or remove through the appropriate
// speculative path and fallback.
func (h *SimHash) apply(t *sim.Thread, key uint64, add bool) bool {
	if h.kind != HashLF {
		r := h.updSite.Begin(t)
		for r.Next(0) {
			var result bool
			st := r.Try(func() { result = h.applyTx(t, key, add) })
			if st == sim.OK {
				h.maybeGrow(t, key, add, result)
				return result
			}
		}
		r.Fallback()
	}
	return h.applyLF(t, key, add)
}

// applyTx is one transactional attempt. The plain PTO variant keeps
// copy-on-write (allocation and copy inside the transaction); the in-place
// variant writes into the existing array and bumps the bucket counter.
func (h *SimHash) applyTx(t *sim.Thread, key uint64, add bool) bool {
	hn := sim.Addr(t.Load(h.headPtr))
	size := t.Load(hn + hnSize)
	i := hashIndex(key, size)
	w := t.Load(bucketWordAddr(hn, i))
	n := hbNode(w)
	if n == 0 {
		t.TxAbort(1) // uninitialized: slow-path work
	}
	if t.Load(n+fsFlags)&1 == 0 {
		t.TxAbort(2) // frozen: resize in progress
	}
	ln := t.Load(n + fsLen)
	found := sim.Addr(0)
	hasKey := false
	for j := uint64(0); j < ln; j++ {
		if t.Load(n+fsVals+sim.Addr(j)) == key {
			hasKey = true
			found = sim.Addr(j)
			break
		}
	}
	if add == hasKey {
		return false // already present / already absent
	}
	if h.kind == HashInplace {
		if add {
			// In-place write requires a free slot; the node was allocated
			// with slack and replaced with a larger one on overflow.
			capacity := uint64(cap64(t, n))
			if ln == capacity {
				t.TxAbort(3)
			}
			t.Store(n+fsVals+sim.Addr(ln), key)
			t.Store(n+fsLen, ln+1)
		} else {
			if found != sim.Addr(ln-1) {
				t.Store(n+fsVals+found, t.Load(n+fsVals+sim.Addr(ln-1)))
			}
			t.Store(n+fsLen, ln-1)
		}
		t.Store(bucketWordAddr(hn, i), hbPack(n, hbCtr(w)+1))
		return true
	}
	// Copy-on-write inside the transaction (allocation remains).
	sc := &h.scratch[t.ID()]
	vals := sc.vals[:0]
	for j := uint64(0); j < ln; j++ {
		v := t.Load(n + fsVals + sim.Addr(j))
		if !add && v == key {
			continue
		}
		vals = append(vals, v)
	}
	if add {
		vals = append(vals, key)
	}
	nn := h.newNode(t, vals)
	sc.vals = vals
	t.Store(bucketWordAddr(hn, i), hbPack(nn, hbCtr(w)+1))
	return true
}

// cap64 infers an in-place node's capacity from its allocation: nodes store
// it implicitly via the slack rule. To avoid an extra header word we track
// capacity in the flags word's upper bits.
func cap64(t *sim.Thread, n sim.Addr) uint64 { return t.Load(n+fsFlags) >> 16 }

// applyLF is the original copy-on-write protocol (the fallback path),
// epoch-bracketed, with retirement of replaced nodes.
func (h *SimHash) applyLF(t *sim.Thread, key uint64, add bool) bool {
	h.epoch.Enter(t)
	defer h.epoch.Exit(t)
	for {
		hn := sim.Addr(t.Load(h.headPtr))
		size := t.Load(hn + hnSize)
		i := hashIndex(key, size)
		w, vals, live, ok := h.snapshot(t, hn, i)
		if !ok {
			if hbNode(w) == 0 {
				h.initBucket(t, hn, i)
			}
			continue
		}
		if !live {
			continue // frozen: head has advanced
		}
		hasKey := hashContains(vals, key)
		if add == hasKey {
			return false
		}
		sc := &h.scratch[t.ID()]
		nv := sc.vals[:0]
		if add {
			nv = append(append(nv, vals...), key)
		} else {
			for _, v := range vals {
				if v != key {
					nv = append(nv, v)
				}
			}
		}
		nn := h.newNode(t, nv)
		sc.vals = nv
		if t.CAS(bucketWordAddr(hn, i), w, hbPack(nn, hbCtr(w)+1)) {
			h.retirers[t.ID()].Retire(t, hbNode(w), fsVals+len(vals))
			h.maybeGrow(t, key, add, true)
			return true
		}
		t.Free(nn, fsVals+len(nv))
	}
}

// maybeGrow applies the growth policy after a successful insert: double
// when the key's bucket exceeds the threshold.
func (h *SimHash) maybeGrow(t *sim.Thread, key uint64, add, applied bool) {
	if !add || !applied {
		return
	}
	hn := sim.Addr(t.Load(h.headPtr))
	size := t.Load(hn + hnSize)
	i := hashIndex(key, size)
	w := t.Load(bucketWordAddr(hn, i))
	n := hbNode(w)
	if n != 0 && t.Load(n+fsLen) > hashBucketThreshold {
		h.resize(t, hn, true)
	}
}

// Insert adds key, reporting false if present.
func (h *SimHash) Insert(t *sim.Thread, key uint64) bool { return h.apply(t, key, true) }

// Remove deletes key, reporting false if absent.
func (h *SimHash) Remove(t *sim.Thread, key uint64) bool { return h.apply(t, key, false) }

// Contains reports membership. The PTO variants first try a transactional
// lookup that touches no reclaimer state; the fallback (and the baseline)
// is the original lookup inside an epoch bracket — wait-free for the
// copy-on-write variants, lock-free (double-checked) for the in-place one.
func (h *SimHash) Contains(t *sim.Thread, key uint64) bool {
	if h.kind != HashLF {
		r := h.lookSite.Begin(t)
		for r.Next(0) {
			var result bool
			st := r.Try(func() {
				hn := sim.Addr(t.Load(h.headPtr))
				size := t.Load(hn + hnSize)
				i := hashIndex(key, size)
				w := t.Load(bucketWordAddr(hn, i))
				n := hbNode(w)
				if n == 0 {
					// Uninitialized: read the (complete) predecessor
					// generation, as the wait-free lookup does.
					pred := sim.Addr(t.Load(hn + hnPred))
					if pred == 0 {
						t.TxAbort(1)
					}
					psize := t.Load(pred + hnSize)
					if size == psize*2 {
						result = h.scanTx(t, pred, i&sim.Addr(psize-1), key)
						return
					}
					if h.scanTx(t, pred, i, key) {
						result = true
						return
					}
					result = h.scanTx(t, pred, i+sim.Addr(size), key)
					return
				}
				result = h.scanTx2(t, n, key)
			})
			if st == sim.OK {
				return result
			}
		}
		r.Fallback()
	}
	h.epoch.Enter(t)
	defer h.epoch.Exit(t)
	for {
		hn := sim.Addr(t.Load(h.headPtr))
		size := t.Load(hn + hnSize)
		i := hashIndex(key, size)
		w := t.Load(bucketWordAddr(hn, i))
		if hbNode(w) == 0 {
			// Read the (complete) predecessor generation instead of
			// initializing, keeping the baseline lookup wait-free.
			pred := sim.Addr(t.Load(hn + hnPred))
			if pred == 0 {
				h.initBucket(t, hn, i)
				continue
			}
			psize := t.Load(pred + hnSize)
			if size == psize*2 {
				if r, ok := h.scanBucket(t, pred, i&sim.Addr(psize-1), key); ok {
					return r
				}
				continue
			}
			if r, ok := h.scanBucket(t, pred, i, key); ok && r {
				return true
			} else if !ok {
				continue
			}
			if r, ok := h.scanBucket(t, pred, i+sim.Addr(size), key); ok {
				return r
			}
			continue
		}
		if r, ok := h.scanBucket(t, hn, i, key); ok {
			return r
		}
	}
}

// scanTx scans bucket i of generation hn inside a transaction.
func (h *SimHash) scanTx(t *sim.Thread, hn sim.Addr, i sim.Addr, key uint64) bool {
	n := hbNode(t.Load(bucketWordAddr(hn, i)))
	if n == 0 {
		t.TxAbort(1)
	}
	return h.scanTx2(t, n, key)
}

// scanTx2 scans the node's values inside a transaction (no double-check
// needed: strong atomicity keeps the view consistent).
func (h *SimHash) scanTx2(t *sim.Thread, n sim.Addr, key uint64) bool {
	ln := t.Load(n + fsLen)
	for j := uint64(0); j < ln; j++ {
		if t.Load(n+fsVals+sim.Addr(j)) == key {
			return true
		}
	}
	return false
}

// Stabilize initializes every bucket of the current generation (a warmup
// helper for benchmarks: a long-lived table reaches this state on its own).
func (h *SimHash) Stabilize(t *sim.Thread) {
	hn := sim.Addr(t.Load(h.headPtr))
	size := t.Load(hn + hnSize)
	for i := sim.Addr(0); i < sim.Addr(size); i++ {
		h.initBucket(t, hn, i)
	}
	t.Store(hn+hnPred, 0)
}

// scanBucket scans one bucket for key; ok=false means the bucket moved
// under the scan (in-place variant) and the caller must retry.
func (h *SimHash) scanBucket(t *sim.Thread, hn sim.Addr, i sim.Addr, key uint64) (bool, bool) {
	w := t.Load(bucketWordAddr(hn, i))
	n := hbNode(w)
	if n == 0 {
		return false, false
	}
	ln := t.Load(n + fsLen)
	found := false
	for j := uint64(0); j < ln; j++ {
		if t.Load(n+fsVals+sim.Addr(j)) == key {
			found = true
			break
		}
	}
	if h.kind == HashInplace && t.Load(n+fsFlags)&1 == 1 {
		if t.Load(bucketWordAddr(hn, i)) != w {
			return false, false
		}
	}
	return found, true
}

// Keys returns a snapshot of the elements (setup/verification helper).
func (h *SimHash) Keys(t *sim.Thread) []uint64 {
	hn := sim.Addr(t.Load(h.headPtr))
	size := t.Load(hn + hnSize)
	var out []uint64
	for i := sim.Addr(0); i < sim.Addr(size); i++ {
		for {
			w, vals, _, ok := h.snapshot(t, hn, i)
			if ok {
				out = append(out, vals...)
				break
			}
			if hbNode(w) == 0 {
				h.initBucket(t, hn, i)
			}
		}
	}
	return out
}
