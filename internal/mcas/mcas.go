// Package mcas implements lock-free multi-word compare-and-swap over shared
// 64-bit words, in the style of Harris, Fraser and Pratt's practical MCAS.
// The Mound priority queue (§3.1 of the paper) is built on the two-word
// specializations DCAS and DCSS; the paper reports each software DCAS/DCSS
// costs up to five CAS instructions, which is precisely the latency PTO
// removes by running the double-word update as a single hardware transaction.
//
// The lock-free baseline Mound is this package's only importer. The
// transactional composition layer publishes with htm.MultiCAS, the same
// algorithm lifted onto transactional Vars; that one decides while it holds
// the lock bits of its Vars, which is why the baseline keeps this genuinely
// lock-free implementation over raw words (see DESIGN.md §7).
//
// A word temporarily holds a pointer to an operation descriptor while a
// multi-word operation is in flight; readers and writers that encounter a
// descriptor help complete it, making every operation lock-free.
//
// Words are boxed behind unique heap cells, so a CAS from a box a thread
// loaded fails if the word changed since, even back to the same value. That
// alone does not make claiming safe: a helper checks that the descriptor is
// undecided and only then loads the word, and in between another helper may
// decide the descriptor and release the word, and a later operation may put
// the old value back in a fresh box. An unconditional claim of that box
// would attach a decided descriptor to the word, which then gets its new
// value a second time. A claim is therefore conditional, as in Harris,
// Fraser and Pratt's RDCSS: the helper installs a conditional claim, and
// whoever finds it completes it to a claim if the descriptor is still
// undecided, and back to the plain value otherwise.
package mcas

import (
	"sort"
	"sync/atomic"
)

// status values for an MCAS descriptor.
const (
	undecided uint32 = iota
	succeeded
	failed
)

// box is the immutable cell a Word points at. desc == nil means the word
// holds the plain value val; otherwise the word is claimed by desc, and val
// is the (already validated) expected old value to restore on failure. A
// cond box is a conditional claim by desc: the word still holds val, and
// whoever finds the box completes it (Word.complete).
type box struct {
	val  uint64
	desc *descriptor
	cond bool
}

type entry struct {
	w        *Word
	old, new uint64
}

type descriptor struct {
	status atomic.Uint32
	// entries are ordered by Word id to prevent livelock between concurrent
	// multi-word operations over overlapping word sets.
	entries []entry
}

var nextID atomic.Uint64

// Word is a 64-bit shared memory word that supports Load, Store, CAS, and
// participation in MCAS/DCAS/DCSS. The zero Word is not valid; use NewWord.
type Word struct {
	id uint64
	p  atomic.Pointer[box]
}

// NewWord returns a word initialized to v.
func NewWord(v uint64) *Word {
	w := &Word{id: nextID.Add(1)}
	w.p.Store(&box{val: v})
	return w
}

// Load returns the word's current value, helping any in-flight multi-word
// operation that has claimed the word.
func (w *Word) Load() uint64 {
	for {
		b := w.p.Load()
		if b.desc == nil {
			return b.val
		}
		w.help(b)
	}
}

// help finishes what holds w through b: the conditional claim b, or the
// multi-word operation that claimed w.
func (w *Word) help(b *box) {
	if b.cond {
		w.complete(b)
	} else {
		b.desc.help()
	}
}

// complete turns the conditional claim r into a claim by r.desc if that
// descriptor is still undecided, and back into r's plain value otherwise.
// The descriptor cannot succeed while r is in the word, as it has not
// claimed the word yet; if it fails between the status check and the CAS,
// whoever next finds the claim releases it to the value r holds anyway.
func (w *Word) complete(r *box) {
	if r.desc.status.Load() == undecided {
		w.p.CompareAndSwap(r, &box{val: r.val, desc: r.desc})
	} else {
		w.p.CompareAndSwap(r, &box{val: r.val})
	}
}

// Store unconditionally sets the word to v. It helps in-flight operations
// rather than clobbering their descriptors.
func (w *Word) Store(v uint64) {
	for {
		b := w.p.Load()
		if b.desc != nil {
			w.help(b)
			continue
		}
		if w.p.CompareAndSwap(b, &box{val: v}) {
			return
		}
	}
}

// CAS atomically replaces old with new, reporting success. It is
// linearizable with respect to concurrent MCAS/DCAS/DCSS operations.
func (w *Word) CAS(old, new uint64) bool {
	for {
		b := w.p.Load()
		if b.desc != nil {
			w.help(b)
			continue
		}
		if b.val != old {
			return false
		}
		if w.p.CompareAndSwap(b, &box{val: new}) {
			return true
		}
	}
}

// Op is one leg of an N-word MCAS: if every leg's word holds its Old value,
// each is atomically replaced with its New value. Old == New makes the leg a
// pure comparison (the DCSS read-guard generalized to N words).
type Op struct {
	W        *Word
	Old, New uint64
}

// MCAS atomically performs {if ∀i *ops[i].W==ops[i].Old { ∀i *ops[i].W=ops[i].New }},
// reporting whether the update happened. Words must be distinct; an empty op
// set trivially succeeds. The operation is lock-free: any thread that
// encounters the descriptor helps drive it to completion.
func MCAS(ops ...Op) bool {
	if len(ops) == 0 {
		return true
	}
	d := &descriptor{entries: make([]entry, len(ops))}
	for i, op := range ops {
		d.entries[i] = entry{w: op.W, old: op.Old, new: op.New}
	}
	sort.Slice(d.entries, func(i, j int) bool {
		return d.entries[i].w.id < d.entries[j].w.id
	})
	for i := 1; i < len(d.entries); i++ {
		if d.entries[i].w == d.entries[i-1].w {
			panic("mcas: duplicate word in MCAS op set")
		}
	}
	d.help()
	return d.status.Load() == succeeded
}

// DCAS atomically performs {if *w1==o1 && *w2==o2 { *w1=n1; *w2=n2 }},
// reporting whether the update happened. w1 and w2 must be distinct words.
func DCAS(w1 *Word, o1, n1 uint64, w2 *Word, o2, n2 uint64) bool {
	return MCAS(Op{W: w1, Old: o1, New: n1}, Op{W: w2, Old: o2, New: n2})
}

// DCSS atomically performs {if *cmp==expect && *w==old { *w=new }}, reporting
// whether the write happened. It is implemented as a DCAS whose first leg is
// a no-op write, matching the paper's observation that DCSS is simulated
// through a sequence of CAS instructions.
func DCSS(cmp *Word, expect uint64, w *Word, old, new uint64) bool {
	return DCAS(cmp, expect, expect, w, old, new)
}

// claim puts a conditional claim by d on w in place of the plain box b, and
// completes it.
func (d *descriptor) claim(w *Word, b *box) {
	r := &box{val: b.val, desc: d, cond: true}
	if w.p.CompareAndSwap(b, r) {
		w.complete(r)
	}
}

// help drives the descriptor to completion. It is safe for any number of
// threads to help the same descriptor concurrently.
func (d *descriptor) help() {
	// Phase 1: claim each word in id order, helping or failing as needed.
claim:
	for i := range d.entries {
		e := &d.entries[i]
		for {
			if d.status.Load() != undecided {
				break claim
			}
			b := e.w.p.Load()
			switch {
			case b.desc == d && !b.cond:
				// Already claimed (by us or a helper).
			case b.desc != nil:
				e.w.help(b)
				continue
			case b.val != e.old:
				d.status.CompareAndSwap(undecided, failed)
				break claim
			default:
				d.claim(e.w, b)
				continue
			}
			break
		}
	}
	d.status.CompareAndSwap(undecided, succeeded)

	// Phase 2: release each claimed word to its final value.
	final := d.status.Load() == succeeded
	for i := range d.entries {
		e := &d.entries[i]
		b := e.w.p.Load()
		if b.desc == d && !b.cond {
			v := e.old
			if final {
				v = e.new
			}
			e.w.p.CompareAndSwap(b, &box{val: v})
		}
	}
}
