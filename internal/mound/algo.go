package mound

// The Mound's one source — insert's probe and binary search, removeMin and
// moundify — over a Mem that the baseline's software DCAS (dcas.go), the
// PTO backend (backends.go) and simds.SimMound (modeled words) supply. Mem
// is an interface, not a type parameter: instantiated, the runtime paths
// measured slower (EXPERIMENTS "Method notes").

// A node word is [marker:1][ver:30][dirty:1][ref:32]. ref names the head
// of the node's sorted list (0: the empty list) — a pool index at runtime,
// a list node's address on the modeled machine. The marker bit is set only
// in a word a software DCAS has claimed; the rest of a marker names its
// descriptor. Every write of a word bumps its version, so value-based CAS
// on node words is ABA-free.
const (
	MarkerBit = 1 << 63
	verMask   = 1<<30 - 1
)

// Empty is the head value of an empty list: above every value a mound
// accepts.
const Empty = ^uint64(0)

func pack(ver uint64, dirty bool, ref uint32) uint64 {
	w := ver<<33 | uint64(ref)
	if dirty {
		w |= 1 << 32
	}
	return w
}

// Dirty reports whether w's node may be out of heap order with its
// children.
func Dirty(w uint64) bool { return w>>32&1 == 1 }

// Ref is the head of w's list.
func Ref(w uint64) uint32 { return uint32(w) }

// Bump is w's successor holding (dirty, ref), one version on.
func Bump(w uint64, dirty bool, ref uint32) uint64 {
	return pack((w>>33+1)&verMask, dirty, ref)
}

// Mem is the memory a mound runs on: node words by 1-based heap id, the
// list nodes their refs name, and the occupied depth. Load, CAS, DCSS and
// DCAS never return or leave a marker: a word found claimed is helped to
// its DCAS's end first. The reads that come in pairs on the modeled machine
// are fused into one call (LoadVal, LoadClean, Vals, Pop), in that order.
//
// The DCAS protocols are the substrates' own. The baseline reuses
// descriptor slots, so its DCSS renews its guard and a failed DCAS renews
// the words it claimed (package comment); the modeled machine never reuses
// an address, so a late helper there restores the old value it claimed.
// The PTO variants try each DCAS and DCSS as a prefix transaction first.
type Mem interface {
	Load(id int) uint64
	// LoadVal loads node id's word and then its head value.
	LoadVal(id int) (w, v uint64)
	// LoadClean loads node id's word and, if it is clean, its head value.
	LoadClean(id int) (w, v uint64)
	// Val is w's head value, Empty for the empty list.
	Val(w uint64) uint64
	// Vals is Val(a), Val(b), read in that order.
	Vals(a, b uint64) (uint64, uint64)
	// Pop reads the value and the next ref of w's non-empty list's head.
	Pop(w uint64) (v uint64, next uint32)
	// Alloc returns the ref of a new list node holding v before next.
	Alloc(v uint64, next uint32) uint32
	CAS(id int, old, new uint64) bool
	// DCSS performs {if word[cmp]==expect && word[tgt]==old {word[tgt]=new}}.
	DCSS(cmp int, expect uint64, tgt int, old, new uint64) bool
	DCAS(id1 int, o1, n1 uint64, id2 int, o2, n2 uint64) bool
	// Leaf reads the occupied depth d and picks a random leaf at it.
	Leaf() (d, leaf int)
	// Grow raises the occupied depth from d to d+1, unless another thread
	// has moved it.
	Grow(d int)
	// Pause waits before a removal helps a dirty root (§2.4's helping
	// avoidance); at runtime it returns at once.
	Pause()
}

// probesPerLevel is how many random leaves an insert tries before growing
// the occupied depth.
const probesPerLevel = 8

// Insert adds v to the mound over mem, a static tree of levels 0..maxDepth.
func Insert(mem Mem, maxDepth int, v uint64) {
	probes := 0
	for {
		d, leaf := mem.Leaf()
		lw, lv := mem.LoadVal(leaf)
		if lv < v || Dirty(lw) {
			probes++
			if probes < probesPerLevel {
				continue
			}
			probes = 0
			if d < maxDepth {
				mem.Grow(d)
				continue
			}
			// Bottom level reached and random probing keeps failing: scan
			// the leaves deterministically. The tree is static, so a fresh
			// scan that finds no candidate means the mound's capacity for
			// this value is genuinely exhausted.
			leaf = 0
			for id := 1 << d; id < 2<<maxDepth; id++ {
				if w, wv := mem.LoadClean(id); !Dirty(w) && wv >= v {
					leaf, lw = id, w
					break
				}
			}
			if leaf == 0 {
				panic("mound: capacity exhausted at maximum depth")
			}
		}
		// The leaf qualifies, so the search is well-defined. Positions on
		// the path are 0..d; path[j] = leaf >> (d-j).
		nID, nw := leaf, lw
		lo, hi := 0, d
		for lo < hi {
			mid := (lo + hi) / 2
			id := leaf >> (d - mid)
			if w, wv := mem.LoadClean(id); !Dirty(w) && wv >= v {
				hi, nID, nw = mid, id, w
			} else {
				lo = mid + 1
			}
		}
		if Dirty(nw) || mem.Val(nw) < v {
			continue
		}
		nw2 := Bump(nw, false, mem.Alloc(v, Ref(nw)))
		if nID == 1 {
			if mem.CAS(1, nw, nw2) {
				return
			}
			continue
		}
		pw, pv := mem.LoadClean(nID >> 1)
		if !Dirty(pw) && pv <= v && mem.DCSS(nID>>1, pw, nID, nw, nw2) {
			return
		}
	}
}

// RemoveMin removes and returns the minimum, reporting false if the mound
// is empty.
func RemoveMin(mem Mem, maxDepth int) (uint64, bool) {
	for {
		w := mem.Load(1)
		if Dirty(w) {
			// Another removal is restoring the invariant: an immediate
			// thundering herd of helpers on the root only lengthens it.
			mem.Pause()
			if w = mem.Load(1); Dirty(w) {
				Moundify(mem, maxDepth, 1)
				continue
			}
		}
		if Ref(w) == 0 {
			return 0, false // a clean, empty root means an empty mound
		}
		v, next := mem.Pop(w)
		if mem.CAS(1, w, Bump(w, true, next)) {
			Moundify(mem, maxDepth, 1)
			return v, true
		}
	}
}

// Moundify restores the invariant below dirty node id by swapping its list
// with the smaller child's, pushing the dirt down until it clears.
func Moundify(mem Mem, maxDepth, id int) {
	for {
		w := mem.Load(id)
		if !Dirty(w) {
			return
		}
		l, r := 2*id, 2*id+1
		if r >= 2<<maxDepth {
			// Bottom of the static tree: nothing below can be smaller.
			mem.CAS(id, w, Bump(w, false, Ref(w)))
			continue
		}
		wl := mem.Load(l)
		if Dirty(wl) {
			Moundify(mem, maxDepth, l)
			continue
		}
		wr := mem.Load(r)
		if Dirty(wr) {
			Moundify(mem, maxDepth, r)
			continue
		}
		c, wc := l, wl
		if vr, vl := mem.Vals(wr, wl); vr < vl {
			c, wc = r, wr
		}
		if vc, v := mem.Vals(wc, w); vc >= v {
			mem.CAS(id, w, Bump(w, false, Ref(w)))
			continue
		}
		if mem.DCAS(id, w, Bump(w, false, Ref(wc)), c, wc, Bump(wc, true, Ref(w))) {
			id = c
		}
	}
}
