// Package skiplist implements the lock-free skiplist of §3.1/§4.3: an
// ordered set with insert, remove, and contains (after Fraser's lock-free
// skiplist, in the formulation of Herlihy & Shavit), and its PTO-accelerated
// variant. The Lotan–Shavit priority queue built on it (SkipQ, Figure 2(b))
// exists only on the modeled machine, as simds.SimSkipQ.
//
// Go cannot tag pointer low bits, so each (next, marked) pair is an
// immutable box behind an atomic pointer — the standard Go idiom for marked
// pointers — and a link's box is identified by its value: every node embeds
// the two boxes that can point at it, unmarked and marked, and every link
// to it holds a pointer to one of them. A link's pointer is then exactly
// Harris's mark-bit word, and nothing is allocated to change it (pto.go
// argues why value identity is enough). The level-0 list is the
// authoritative set; higher levels are shortcut lists that are repaired
// lazily by find, and searches start at the highest level any node has.
//
// The PTO variant follows the paper's finding that only local application is
// profitable for skiplists: the search phase stays outside the transaction,
// and a prefix transaction performs just the multi-CAS linking (insert) or
// marking (remove) step, falling back to the original CAS sequence.
package skiplist

import (
	"math/bits"
	"sync/atomic"
)

// MaxLevel bounds tower height; 2^20 expected elements is ample for the
// paper's workloads (range ≤ 64K).
const MaxLevel = 20

const (
	headKey = -1 << 63
	tailKey = 1<<63 - 1
)

// box is an immutable (successor, marked) pair. Only the tail's links hold
// a box of their own; every other box is embedded in its successor.
type box struct {
	n      *node
	marked bool
}

type node struct {
	key int64
	// in and inMarked are the boxes of the links that point at this node;
	// they sit beside key, so a hop reads the next link and then one line.
	in, inMarked box
	top          int // index of highest valid level
	next         []atomic.Pointer[box]
}

func newNode(key int64, top int) *node {
	n := &node{key: key, top: top, next: make([]atomic.Pointer[box], top+1)}
	n.in = box{n: n}
	n.inMarked = box{n: n, marked: true}
	return n
}

// Set is the lock-free baseline skiplist set.
type Set struct {
	head   *node
	tail   *node
	rstate atomic.Uint64
	// height is the highest level any node has; it only grows.
	height atomic.Int32
}

// NewSet returns an empty set.
func NewSet() *Set {
	s := &Set{}
	s.tail = newNode(tailKey, MaxLevel-1)
	s.head = newNode(headKey, MaxLevel-1)
	for l := 0; l < MaxLevel; l++ {
		s.tail.next[l].Store(&box{})
		s.head.next[l].Store(&s.tail.in)
	}
	s.rstate.Store(0x9E3779B97F4A7C15)
	return s
}

// randomLevel draws a geometric(1/2) tower height in [0, MaxLevel) and
// raises s.height to it, before the caller can link a node that tall.
func (s *Set) randomLevel() int {
	l := drawLevel(&s.rstate)
	raise(&s.height, l)
	return l
}

// drawLevel draws a geometric(1/2) tower height in [0, MaxLevel).
func drawLevel(rstate *atomic.Uint64) int {
	x := rstate.Add(0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return bits.TrailingZeros64(x | (1 << (MaxLevel - 1)))
}

// raise lifts the monotone height h to at least l. A search that loads h
// after a node's tower was linked starts at or above that tower's top.
func raise(h *atomic.Int32, l int) {
	for cur := h.Load(); int32(l) > cur; cur = h.Load() {
		if h.CompareAndSwap(cur, int32(l)) {
			return
		}
	}
}

// find locates key's predecessors and successors at every level, snipping
// marked nodes it passes. It reports whether key is present (unmarked) at
// level 0. predBoxes, when non-nil, receives the box observed in each
// pred's next pointer, for the caller's CAS. Levels above s.height are left
// untouched: no node has them.
func (s *Set) find(key int64, preds, succs []*node, predBoxes []*box) bool {
retry:
	for {
		pred := s.head
		for level := int(s.height.Load()); level >= 0; level-- {
			pb := pred.next[level].Load()
			if pb.marked {
				continue retry
			}
			curr := pb.n
			for {
				cb := curr.next[level].Load()
				for cb.marked {
					if !pred.next[level].CompareAndSwap(pb, &cb.n.in) {
						continue retry
					}
					pb = pred.next[level].Load()
					if pb.marked {
						continue retry
					}
					curr = pb.n
					cb = curr.next[level].Load()
				}
				if curr.key < key {
					pred = curr
					pb = cb
					curr = cb.n
				} else {
					break
				}
			}
			preds[level] = pred
			succs[level] = curr
			if predBoxes != nil {
				predBoxes[level] = pb
			}
		}
		return succs[0].key == key
	}
}

// Contains reports whether key is in the set. It is wait-free: a pure
// traversal that skips marked nodes without writing.
func (s *Set) Contains(key int64) bool {
	pred := s.head
	var curr *node
	for level := int(s.height.Load()); level >= 0; level-- {
		curr = pred.next[level].Load().n
		for {
			cb := curr.next[level].Load()
			if cb.marked {
				curr = cb.n
				continue
			}
			if curr.key < key {
				pred = curr
				curr = cb.n
			} else {
				break
			}
		}
	}
	if curr.key != key {
		return false
	}
	return !curr.next[0].Load().marked
}

// Insert adds key, reporting false if it was already present.
func (s *Set) Insert(key int64) bool {
	var preds, succs [MaxLevel]*node
	var pboxes [MaxLevel]*box
	top := s.randomLevel()
	for {
		if s.find(key, preds[:], succs[:], pboxes[:]) {
			return false
		}
		n := newNode(key, top)
		for l := 0; l <= top; l++ {
			n.next[l].Store(&succs[l].in)
		}
		if !preds[0].next[0].CompareAndSwap(pboxes[0], &n.in) {
			continue
		}
		for l := 1; l <= top; l++ {
			for {
				if preds[l].next[l].CompareAndSwap(pboxes[l], &n.in) {
					break
				}
				// Refresh the view; if the new node was meanwhile marked,
				// stop linking — find will snip whatever was linked.
				if n.next[l].Load().marked || n.next[0].Load().marked {
					return true
				}
				s.find(key, preds[:], succs[:], pboxes[:])
				nb := n.next[l].Load()
				if nb.marked {
					return true
				}
				if nb.n != succs[l] {
					if !n.next[l].CompareAndSwap(nb, &succs[l].in) {
						return true // only a marker can beat us here
					}
				}
			}
		}
		return true
	}
}

// Remove deletes key, reporting false if it was absent. Marking proceeds
// top-down with level 0 last; the successful level-0 mark linearizes the
// removal, and a final find physically unlinks the node.
func (s *Set) Remove(key int64) bool {
	var preds, succs [MaxLevel]*node
	if !s.find(key, preds[:], succs[:], nil) {
		return false
	}
	victim := succs[0]
	for l := victim.top; l >= 1; l-- {
		b := victim.next[l].Load()
		for !b.marked {
			victim.next[l].CompareAndSwap(b, &b.n.inMarked)
			b = victim.next[l].Load()
		}
	}
	for {
		b := victim.next[0].Load()
		if b.marked {
			return false
		}
		if victim.next[0].CompareAndSwap(b, &b.n.inMarked) {
			s.find(key, preds[:], succs[:], nil) // physical unlink
			return true
		}
	}
}

// Len counts unmarked level-0 nodes. O(n); for tests and examples.
func (s *Set) Len() int {
	n := 0
	for curr := s.head.next[0].Load().n; curr != s.tail; {
		b := curr.next[0].Load()
		if !b.marked {
			n++
		}
		curr = b.n
	}
	return n
}

// Keys returns the unmarked keys in order. O(n); for tests and examples.
func (s *Set) Keys() []int64 {
	var out []int64
	for curr := s.head.next[0].Load().n; curr != s.tail; {
		b := curr.next[0].Load()
		if !b.marked {
			out = append(out, curr.key)
		}
		curr = b.n
	}
	return out
}
