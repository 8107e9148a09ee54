// Package mound implements the Mound of Liu and Spear (ICPP 2012): an
// array-based concurrent priority queue shaped as a static tree of sorted
// lists, the structure §3.1/§4.2 of the paper accelerates.
//
// Each tree node is one word packing (version, dirty bit, list head). The
// mound invariant is that a clean node's head value is ≤ its children's head
// values, so the root holds the minimum. Insert binary-searches a random
// root-to-leaf path for the node where the new value belongs and pushes it
// onto that node's list with a DCSS (double-compare-single-swap) that guards
// the parent; removeMin pops the root's list head with a CAS, marking the
// root dirty, and restores the invariant by swapping lists down the tree
// with DCAS operations ("moundify"). The tree is static — no node memory
// management — but the occupied depth grows on demand when inserts cannot
// find a suitable leaf.
//
// The baseline runs DCAS and DCSS in software over raw node words
// (dcas.go), with the paper's descriptor protocol: a DCAS writes its legs
// into a descriptor, claims each word in node order with CAS(old, marker),
// decides with one CAS on the descriptor's status and releases each word
// with one more CAS — five CAS when uncontended: two claims, one decision,
// two releases. A thread that finds a marker helps that DCAS to its end
// first, so every operation is lock-free. A marker names its descriptor by
// slot and sequence number in a per-Mound table, and slots are reused, as
// the paper's descriptors are.
//
// The claim is unconditional, which is safe because no claimed word's old
// value comes back once its descriptor is decided. Every write of a node
// word bumps its version; a failed DCAS releases the word it claimed with
// its version renewed; and a DCSS claims its guard as a DCAS leg whose
// release renews the guard's version, so that a DCSS writes its guard.
// (The alternative, leaving the guard
// unclaimed and reading it after claiming the target, would have a DCSS
// help whatever DCAS holds the guard, which may in turn wait on the DCSS's
// target: claiming both words in node order rules that cycle out.) A helper
// that saw the descriptor undecided and stalled before its claim therefore
// finds its old value gone and cannot attach a decided descriptor to a
// word, and no marker outlives its DCAS, which is what lets a slot be
// reused. The version has 30 bits: the claim could be fooled only by a
// helper stalled between two instructions while a multiple of 2^30 — about
// a billion — writes land on that one node, which takes tens of seconds of
// nothing but writes to it.
//
// The PTO variant (§4.2) applies prefix transactions locally to
// exactly those sub-operations — each DCAS/DCSS becomes one transaction
// attempted up to four times (the paper's tuned retry value) before the
// software path (htm.MultiCAS) runs. The whole-operation application of PTO is
// deliberately absent: the paper found it unprofitable because all
// removeMins contend at the root.
package mound

import (
	"math"
	"sync"
	"sync/atomic"
)

// DefaultMaxDepth bounds the static tree: levels 0..DefaultMaxDepth, giving
// 2^DefaultMaxDepth leaves.
const DefaultMaxDepth = 13

// MaxValue is the largest priority a mound accepts (the top value is the
// empty-list sentinel).
const MaxValue = math.MaxInt64 - 1

// probesPerLevel is how many random leaves an insert tries before growing
// the occupied depth.
const probesPerLevel = 8

// Word packing: [marker:1][ver:30][dirty:1][idx:32]. The marker bit is
// set only in a word the baseline's DCAS has claimed (dcas.go).
const verMask = 1<<30 - 1

func pack(ver uint64, dirty bool, idx uint32) uint64 {
	w := ver<<33 | uint64(idx)
	if dirty {
		w |= 1 << 32
	}
	return w
}

func wordVer(w uint64) uint64 { return w >> 33 & verMask }
func wordDirty(w uint64) bool { return w>>32&1 == 1 }
func wordIdx(w uint64) uint32 { return uint32(w) }
func bump(w uint64, dirty bool, idx uint32) uint64 {
	return pack((wordVer(w)+1)&verMask, dirty, idx)
}

// renew bumps w's version and keeps its contents.
func renew(w uint64) uint64 { return bump(w, wordDirty(w), wordIdx(w)) }

// lnode is one element of a node's sorted list.
type lnode struct {
	val  int64
	next uint32
}

// listPool is an append-only allocator for list nodes; index 0 is the nil
// list. Popped nodes are not recycled (the paper's mound reuses descriptors,
// not list nodes; recycling is orthogonal to what PTO accelerates here).
type listPool struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]*[poolChunk]lnode]
	next   atomic.Uint32
}

const poolChunk = 1 << 14

func newListPool() *listPool {
	p := &listPool{}
	first := []*[poolChunk]lnode{new([poolChunk]lnode)}
	p.chunks.Store(&first)
	p.next.Store(1) // index 0 is reserved as nil
	return p
}

func (p *listPool) alloc(val int64, next uint32) uint32 {
	i := p.next.Add(1) - 1
	for {
		chunks := *p.chunks.Load()
		if int(i)/poolChunk < len(chunks) {
			n := &chunks[int(i)/poolChunk][int(i)%poolChunk]
			n.val, n.next = val, next
			return i
		}
		p.mu.Lock()
		chunks = *p.chunks.Load()
		if int(i)/poolChunk >= len(chunks) {
			grown := append(append([]*[poolChunk]lnode{}, chunks...), new([poolChunk]lnode))
			p.chunks.Store(&grown)
		}
		p.mu.Unlock()
	}
}

func (p *listPool) node(i uint32) *lnode {
	chunks := *p.chunks.Load()
	return &chunks[int(i)/poolChunk][int(i)%poolChunk]
}

// backend abstracts the synchronization substrate: the baseline runs on
// the software DCAS of dcas.go, the PTO variant on prefix transactions
// with that as fallback. Node ids are 1-based heap indices.
type backend interface {
	load(id int) uint64
	cas(id int, old, new uint64) bool
	// dcss performs {if word[cmp]==expect && word[tgt]==old {word[tgt]=new}}.
	dcss(cmp int, expect uint64, tgt int, old, new uint64) bool
	// dcas performs the two-word compare-and-swap.
	dcas(id1 int, o1, n1 uint64, id2 int, o2, n2 uint64) bool
}

// Mound is a concurrent priority queue. Construct with New or NewPTO.
type Mound struct {
	be       backend
	pool     *listPool
	maxDepth int
	depth    atomic.Int32 // currently occupied depth (leaf level for probes)
	rstate   atomic.Uint64
	size     int // number of node ids + 1
}

// New returns an empty baseline mound with levels 0..maxDepth (≤ 0 selects
// DefaultMaxDepth).
func New(maxDepth int) *Mound {
	m := newMound(maxDepth)
	m.be = newLockfreeBackend(m.size)
	return m
}

func newMound(maxDepth int) *Mound {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	m := &Mound{pool: newListPool(), maxDepth: maxDepth, size: 1 << (maxDepth + 1)}
	m.depth.Store(2)
	m.rstate.Store(0x853C49E6748FEA9B)
	return m
}

// val decodes a word's head value; an empty list reads as +∞.
func (m *Mound) val(w uint64) int64 {
	i := wordIdx(w)
	if i == 0 {
		return math.MaxInt64
	}
	return m.pool.node(i).val
}

func (m *Mound) randomLeaf(d int) int {
	x := m.rstate.Add(0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return 1<<d + int(x%(1<<d))
}

// grow raises the occupied depth by one level (new leaves are empty).
func (m *Mound) grow(from int32) {
	if int(from) < m.maxDepth {
		m.depth.CompareAndSwap(from, from+1)
	}
}

// Insert adds v to the queue.
func (m *Mound) Insert(v int64) {
	if v < 0 || v > MaxValue {
		panic("mound: value out of range")
	}
	probes := 0
	for {
		d := m.depth.Load()
		leaf := m.randomLeaf(int(d))
		lw := m.be.load(leaf)
		if m.val(lw) < v || wordDirty(lw) {
			probes++
			if probes >= probesPerLevel {
				probes = 0
				if int(d) < m.maxDepth {
					m.grow(d)
					continue
				}
				// Bottom level reached and random probing keeps failing:
				// scan the leaves deterministically. The tree is static, so
				// a fresh scan that finds no candidate means the mound's
				// capacity for this value is genuinely exhausted.
				leaf = 0
				for id := 1 << d; id < m.size; id++ {
					if w := m.be.load(id); !wordDirty(w) && m.val(w) >= v {
						leaf, lw = id, w
						break
					}
				}
				if leaf == 0 {
					panic("mound: capacity exhausted at maximum depth")
				}
			} else {
				continue
			}
		}
		// Binary search the root-to-leaf path for the highest node whose
		// value is ≥ v; the leaf qualifies, so the search is well-defined.
		nID, nw := leaf, lw
		lo, hi := 0, int(d) // positions on the path; path[j] = leaf >> (d-j)
		for lo < hi {
			mid := (lo + hi) / 2
			id := leaf >> (int(d) - mid)
			w := m.be.load(id)
			if !wordDirty(w) && m.val(w) >= v {
				hi = mid
				nID, nw = id, w
			} else {
				lo = mid + 1
			}
		}
		if wordDirty(nw) || m.val(nw) < v {
			continue
		}
		idx := m.pool.alloc(v, wordIdx(nw))
		nw2 := bump(nw, false, idx)
		if nID == 1 {
			if m.be.cas(1, nw, nw2) {
				return
			}
			continue
		}
		pw := m.be.load(nID >> 1)
		if wordDirty(pw) || m.val(pw) > v {
			continue
		}
		if m.be.dcss(nID>>1, pw, nID, nw, nw2) {
			return
		}
	}
}

// RemoveMin removes and returns the minimum value, reporting false if the
// mound is empty.
func (m *Mound) RemoveMin() (int64, bool) {
	for {
		w := m.be.load(1)
		if wordDirty(w) {
			m.moundify(1)
			continue
		}
		i := wordIdx(w)
		if i == 0 {
			return 0, false // a clean, empty root means an empty mound
		}
		ln := m.pool.node(i)
		if m.be.cas(1, w, bump(w, true, ln.next)) {
			m.moundify(1)
			return ln.val, true
		}
	}
}

// moundify restores the invariant below a dirty node by swapping its list
// with the smaller child's, pushing the dirt down until it clears.
func (m *Mound) moundify(id int) {
	for {
		w := m.be.load(id)
		if !wordDirty(w) {
			return
		}
		l, r := 2*id, 2*id+1
		if r >= m.size {
			// Bottom of the static tree: nothing below can be smaller.
			m.be.cas(id, w, bump(w, false, wordIdx(w)))
			continue
		}
		wl := m.be.load(l)
		if wordDirty(wl) {
			m.moundify(l)
			continue
		}
		wr := m.be.load(r)
		if wordDirty(wr) {
			m.moundify(r)
			continue
		}
		c, wc := l, wl
		if m.val(wr) < m.val(wl) {
			c, wc = r, wr
		}
		if m.val(wc) >= m.val(w) {
			m.be.cas(id, w, bump(w, false, wordIdx(w)))
			continue
		}
		if m.be.dcas(id, w, bump(w, false, wordIdx(wc)), c, wc, bump(wc, true, wordIdx(w))) {
			id = c
		}
	}
}

// Len counts queued elements. O(tree); for tests and examples.
func (m *Mound) Len() int {
	n := 0
	for id := 1; id < m.size; id++ {
		w := m.be.load(id)
		for i := wordIdx(w); i != 0; i = m.pool.node(i).next {
			n++
		}
	}
	return n
}

// Depth returns the currently occupied depth (diagnostic).
func (m *Mound) Depth() int { return int(m.depth.Load()) }
