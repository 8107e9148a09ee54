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
// lazily by find, and searches start at a height that follows the live
// towers (Set.height says how).
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

// withTower is a node and its tower in one allocation.
type withTower[N, T any] struct {
	n N
	t T
}

// alloc returns a new N and a tower of top+1 links of type L for it. A
// tower of up to four links (fifteen nodes in sixteen) lives in the N's own
// allocation, so a hop misses on one object, not two; a taller one is a
// slice apart.
func alloc[N, L any](top int) (*N, []L) {
	switch top {
	case 0:
		x := new(withTower[N, [1]L])
		return &x.n, x.t[:]
	case 1:
		x := new(withTower[N, [2]L])
		return &x.n, x.t[:]
	case 2:
		x := new(withTower[N, [3]L])
		return &x.n, x.t[:]
	case 3:
		x := new(withTower[N, [4]L])
		return &x.n, x.t[:]
	}
	return new(N), make([]L, top+1)
}

// newNode allocates a node with a tower of top+1 links.
func newNode(key int64, top int) *node {
	n, next := alloc[node, atomic.Pointer[box]](top)
	n.key, n.top, n.next = key, top, next
	n.in = box{n: n}
	n.inMarked = box{n: n, marked: true}
	return n
}

// Set is the lock-free baseline skiplist set.
type Set struct {
	head   *node
	tail   *node
	rstate atomic.Uint64
	// height is the level searches start at. A node raises it just before
	// its first link is published, and after each physical unlink lower
	// drops it while the head's link at that level leads to the tail. It is
	// a hint, not a bound: a remover can lower it under an inserter that
	// has raised it and not yet linked, so a tower can stand above it until
	// the next raise. No answer depends on it: a lookup is right from any
	// level, and every search that links or unlinks starts at max(height,
	// top) for its own tower's top, so an inserter whose level was lowered
	// under it still finds a predecessor at every level it links, and a
	// physical unlink still snips every level of its victim.
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

// drawLevel draws a geometric(1/2) tower height in [0, MaxLevel).
func drawLevel(rstate *atomic.Uint64) int {
	x := rstate.Add(0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return bits.TrailingZeros64(x | (1 << (MaxLevel - 1)))
}

// raise lifts the height h to at least l, the top of a tower about to be
// linked. A search that loads h after the tower was linked starts at or
// above its top, unless lower has dropped h since.
func raise(h *atomic.Int32, l int) {
	for cur := h.Load(); int32(l) > cur; cur = h.Load() {
		if h.CompareAndSwap(cur, int32(l)) {
			return
		}
	}
}

// lower drops the height h while empty(h) reports that the head's link at
// that level leads straight to the tail. It runs after each physical
// unlink, so a set whose operations ran one at a time keeps h at its
// tallest live tower's top.
func lower(h *atomic.Int32, empty func(l int) bool) {
	for cur := h.Load(); cur > 0 && empty(int(cur)); cur = h.Load() {
		h.CompareAndSwap(cur, cur-1)
	}
}

// find locates key's predecessors and successors at every level from
// max(s.height, top) down, snipping marked nodes it passes, where top is
// the top of the tower the caller links or unlinks. It reports whether key
// is present (unmarked) at level 0. predBoxes, when non-nil, receives the
// box observed in each pred's next pointer, for the caller's CAS. Levels
// above the start are left untouched.
func (s *Set) find(key int64, top int, preds, succs []*node, predBoxes []*box) bool {
retry:
	for {
		pred := s.head
		for level := max(int(s.height.Load()), top); level >= 0; level-- {
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
// traversal that skips marked nodes without writing. Above level 0 it reads
// the links of the nodes it moves past and not that of the node a level
// stops at, which would only say whether that node is marked.
func (s *Set) Contains(key int64) bool {
	pred := s.head
	for level := int(s.height.Load()); level > 0; level-- {
		for curr := pred.next[level].Load().n; curr.key < key; {
			cb := curr.next[level].Load()
			if !cb.marked {
				pred = curr
			}
			curr = cb.n
		}
	}
	for curr := pred.next[0].Load().n; ; {
		cb := curr.next[0].Load()
		if !cb.marked && curr.key >= key {
			return curr.key == key
		}
		curr = cb.n
	}
}

// Insert adds key, reporting false if it was already present.
func (s *Set) Insert(key int64) bool { return s.insert(key, drawLevel(&s.rstate)) }

// insert is Insert with a tower of top+1 links.
func (s *Set) insert(key int64, top int) bool {
	var preds, succs [MaxLevel]*node
	var pboxes [MaxLevel]*box
	for {
		if s.find(key, top, preds[:], succs[:], pboxes[:]) {
			return false
		}
		n := newNode(key, top)
		for l := 0; l <= top; l++ {
			n.next[l].Store(&succs[l].in)
		}
		raise(&s.height, top)
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
				s.find(key, top, preds[:], succs[:], pboxes[:])
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
// removal, and unlink physically unlinks the node.
func (s *Set) Remove(key int64) bool {
	var preds, succs [MaxLevel]*node
	if !s.find(key, 0, preds[:], succs[:], nil) {
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
			s.unlink(key, victim.top)
			return true
		}
	}
}

// unlink snips the marked node of key, whose tower's top is top, at every
// level, then lowers s.height past the levels that left empty.
func (s *Set) unlink(key int64, top int) {
	var preds, succs [MaxLevel]*node
	s.find(key, top, preds[:], succs[:], nil)
	lower(&s.height, func(l int) bool { return s.head.next[l].Load() == &s.tail.in })
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
