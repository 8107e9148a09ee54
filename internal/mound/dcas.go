package mound

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the baseline's software DCAS and DCSS over raw node words:
// the protocol and its cost are in the package comment.

// A claimed node word holds a marker: MarkerBit, then the sequence number
// and the slot of the claiming descriptor, [1][seq:43][slot:20]. Node word
// versions are masked (Bump) so that no plain word has the marker bit.
const (
	slotBits = 20
	seqMask  = 1<<(63-slotBits) - 1
)

func marker(slot uint32, seq uint64) uint64 { return MarkerBit | seq<<slotBits | uint64(slot) }

// renew bumps w's version and keeps its contents.
func renew(w uint64) uint64 { return Bump(w, Dirty(w), Ref(w)) }

// The states of a descriptor's status word, seq<<2 | state.
const (
	undecided = iota
	succeeded
	failed
)

// desc is a descriptor slot. It holds one DCAS at a time: its owner writes
// the next only once the last is decided and released, bumping the
// sequence number before it writes the fields.
type desc struct {
	slot         uint32
	status       atomic.Uint64
	id, old, new [2]atomic.Uint64
}

// dcasOp is one DCAS: its legs in ascending node id.
type dcasOp struct {
	id       [2]int
	old, new [2]uint64
}

// publish writes op into d under the next sequence number and returns it.
func (d *desc) publish(op *dcasOp) uint64 {
	seq := (d.status.Load()>>2 + 1) & seqMask
	d.status.Store(seq<<2 | undecided)
	for i := range op.id {
		d.id[i].Store(uint64(op.id[i]))
		d.old[i].Store(op.old[i])
		d.new[i].Store(op.new[i])
	}
	return seq
}

// snapshot reads the DCAS that d holds under seq, reporting false if the
// slot has moved past it. The caller found seq's marker in a word, so seq
// was published before the fields are read; if the status still shows seq
// after them, no later DCAS has begun to overwrite them.
func (d *desc) snapshot(seq uint64) (op dcasOp, ok bool) {
	for i := range op.id {
		op.id[i] = int(d.id[i].Load())
		op.old[i] = d.old[i].Load()
		op.new[i] = d.new[i].Load()
	}
	return op, d.status.Load()>>2 == seq
}

// descTable maps a marker's slot to its descriptor. Slots are reused
// through a sync.Pool, which hands one out without an atomic
// read-modify-write; a lease the pool drops is collected, and its
// finalizer returns the slot to the free list.
type descTable struct {
	pool  sync.Pool // *lease
	slots atomic.Pointer[[]*desc]
	mu    sync.Mutex
	free  []uint32 // guarded by mu
}

type lease struct{ d *desc }

// get takes a slot for one DCAS; the caller puts the lease back in pool
// once the DCAS is released.
func (t *descTable) get() *lease {
	if l, ok := t.pool.Get().(*lease); ok {
		return l
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slots := *t.slots.Load()
	var d *desc
	if n := len(t.free); n > 0 {
		d, t.free = slots[t.free[n-1]], t.free[:n-1]
	} else {
		if len(slots) == 1<<slotBits {
			panic("mound: more DCAS descriptors in flight than a marker can name")
		}
		d = &desc{slot: uint32(len(slots))}
		// Readers index only below their own copy's length, so the
		// append may share the backing array.
		grown := append(slots, d)
		t.slots.Store(&grown)
	}
	l := &lease{d}
	runtime.SetFinalizer(l, func(l *lease) {
		t.mu.Lock()
		t.free = append(t.free, l.d.slot)
		t.mu.Unlock()
	})
	return l
}

// lockfreeBackend is the baseline substrate: node words are raw
// atomic.Uint64s and DCAS and DCSS run the descriptor protocol over them.
type lockfreeBackend struct {
	lists
	words []atomic.Uint64
	descs descTable
}

func newLockfreeBackend(size int) *lockfreeBackend {
	b := &lockfreeBackend{words: make([]atomic.Uint64, size)}
	b.descs.slots.Store(new([]*desc))
	return b
}

func (b *lockfreeBackend) Load(id int) uint64 {
	for {
		v := b.words[id].Load()
		if v&MarkerBit == 0 {
			return v
		}
		b.helpMarker(v)
	}
}

func (b *lockfreeBackend) LoadVal(id int) (uint64, uint64) {
	w := b.Load(id)
	return w, b.Val(w)
}

func (b *lockfreeBackend) LoadClean(id int) (uint64, uint64) {
	w := b.Load(id)
	if Dirty(w) {
		return w, 0
	}
	return w, b.Val(w)
}

func (b *lockfreeBackend) CAS(id int, old, new uint64) bool {
	for b.Load(id) == old {
		if b.words[id].CompareAndSwap(old, new) {
			return true
		}
	}
	return false
}

// DCSS claims its guard like a DCAS leg, and the release renews the
// guard's version so that its old value cannot come back (package comment).
func (b *lockfreeBackend) DCSS(cmp int, expect uint64, tgt int, old, new uint64) bool {
	return b.DCAS(cmp, expect, renew(expect), tgt, old, new)
}

func (b *lockfreeBackend) DCAS(id1 int, o1, n1 uint64, id2 int, o2, n2 uint64) bool {
	op := dcasOp{id: [2]int{id1, id2}, old: [2]uint64{o1, o2}, new: [2]uint64{n1, n2}}
	if id2 < id1 {
		// Legs are claimed in node order, so that two DCASes never each
		// hold the word the other needs next.
		op = dcasOp{id: [2]int{id2, id1}, old: [2]uint64{o2, o1}, new: [2]uint64{n2, n1}}
	}
	l := b.descs.get()
	ok := b.help(l.d, l.d.publish(&op), &op)
	b.descs.pool.Put(l)
	return ok
}

// helpMarker helps the DCAS whose marker v was found in a word. A slot
// that has moved on held a DCAS whose owner released its every leg.
func (b *lockfreeBackend) helpMarker(v uint64) {
	d := (*b.descs.slots.Load())[v&(1<<slotBits-1)]
	seq := v &^ MarkerBit >> slotBits
	if op, ok := d.snapshot(seq); ok {
		b.help(d, seq, &op)
	}
}

// help drives op, published in d under seq, to its end: claim each leg
// with CAS(old, marker), decide with one CAS on the status word, release
// each leg with one more. Any number of threads may help one DCAS; each
// claim, decision and release happens once. It reports whether op
// succeeded.
func (b *lockfreeBackend) help(d *desc, seq uint64, op *dcasOp) bool {
	m, open := marker(d.slot, seq), seq<<2|undecided
claim:
	for i := range op.id {
		w := &b.words[op.id[i]]
		for d.status.Load() == open {
			switch v := w.Load(); {
			case v == m:
				continue claim
			case v&MarkerBit != 0:
				b.helpMarker(v)
			case v != op.old[i]:
				d.status.CompareAndSwap(open, seq<<2|failed)
			case w.CompareAndSwap(v, m):
				continue claim
			}
		}
		break
	}
	d.status.CompareAndSwap(open, seq<<2|succeeded)
	st := d.status.Load()
	if st>>2 != seq {
		return false // the owner has released every leg and moved on
	}
	ok := st&3 == succeeded
	for i, id := range op.id {
		v := op.new[i]
		if !ok {
			v = renew(op.old[i])
		}
		b.words[id].CompareAndSwap(m, v)
	}
	return ok
}
