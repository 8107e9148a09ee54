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
// find a suitable leaf. That algorithm exists once, in algo.go, over the
// memory contract Mem, which this package's two backends implement and
// simds.SimMound implements on the modeled machine.
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
// (The alternative, leaving the guard unclaimed and reading it after
// claiming the target, would have a DCSS help whatever DCAS holds the
// guard, which may in turn wait on the DCSS's target: claiming both words
// in node order rules that cycle out.) A helper
// that saw the descriptor undecided and stalled before its claim therefore
// finds its old value gone and cannot attach a decided descriptor to a
// word, and no marker outlives its DCAS, which is what lets a slot be
// reused. The version has 30 bits: the claim could be fooled only by a
// helper stalled between two instructions while a multiple of 2^30 — about
// a billion — writes land on that one node, which takes tens of seconds of
// nothing but writes to it.
//
// The PTO variant (§4.2) applies prefix transactions locally to exactly
// those sub-operations — each DCAS/DCSS becomes one transaction attempted
// up to four times (the paper's tuned retry value) before the software path
// (htm.MultiCAS) runs. The whole-operation application of PTO is
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

// MaxValue is the largest priority a mound accepts.
const MaxValue = math.MaxInt64 - 1

// lnode is one element of a node's sorted list.
type lnode struct {
	val  uint64
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

func (p *listPool) Alloc(val uint64, next uint32) uint32 {
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

// lists is what both runtime backends keep beside their node words — the
// list pool, the occupied depth and the leaf picker's state — and the half
// of Mem that does not touch a node word.
type lists struct {
	listPool
	depth  atomic.Int32 // currently occupied depth (leaf level for probes)
	rstate atomic.Uint64
}

func (l *lists) Val(w uint64) uint64 {
	i := Ref(w)
	if i == 0 {
		return Empty
	}
	return l.node(i).val
}

func (l *lists) Vals(a, b uint64) (uint64, uint64) { return l.Val(a), l.Val(b) }

func (l *lists) Pop(w uint64) (uint64, uint32) {
	n := l.node(Ref(w))
	return n.val, n.next
}

func (l *lists) Leaf() (int, int) {
	d := int(l.depth.Load())
	x := l.rstate.Add(0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return d, 1<<d + int(x%(1<<d))
}

func (l *lists) Grow(d int) { l.depth.CompareAndSwap(int32(d), int32(d+1)) }

func (*lists) Pause() {}

// Mound is a concurrent priority queue. Construct with New or NewPTO.
type Mound struct {
	mem      Mem
	l        *lists
	maxDepth int
}

// New returns an empty baseline mound with levels 0..maxDepth (≤ 0 selects
// DefaultMaxDepth).
func New(maxDepth int) *Mound {
	maxDepth = depthOr(maxDepth)
	b := newLockfreeBackend(2 << maxDepth)
	return newMound(b, &b.lists, maxDepth)
}

func depthOr(maxDepth int) int {
	if maxDepth <= 0 {
		return DefaultMaxDepth
	}
	return maxDepth
}

// newMound runs a mound of levels 0..maxDepth on mem, whose lists are l.
func newMound(mem Mem, l *lists, maxDepth int) *Mound {
	first := []*[poolChunk]lnode{new([poolChunk]lnode)}
	l.chunks.Store(&first)
	l.next.Store(1) // index 0 is reserved as nil
	l.depth.Store(2)
	l.rstate.Store(0x853C49E6748FEA9B)
	return &Mound{mem: mem, l: l, maxDepth: maxDepth}
}

// size is the number of node ids + 1.
func (m *Mound) size() int { return 2 << m.maxDepth }

// Insert adds v to the queue.
func (m *Mound) Insert(v int64) {
	if v < 0 || v > MaxValue {
		panic("mound: value out of range")
	}
	Insert(m.mem, m.maxDepth, uint64(v))
}

// RemoveMin removes and returns the minimum value, reporting false if the
// mound is empty.
func (m *Mound) RemoveMin() (int64, bool) {
	v, ok := RemoveMin(m.mem, m.maxDepth)
	return int64(v), ok
}

// Len counts queued elements. O(tree); for tests and examples.
func (m *Mound) Len() int {
	n := 0
	for id := 1; id < m.size(); id++ {
		for i := Ref(m.mem.Load(id)); i != 0; i = m.l.node(i).next {
			n++
		}
	}
	return n
}

// Depth returns the currently occupied depth (diagnostic).
func (m *Mound) Depth() int { return int(m.l.depth.Load()) }
