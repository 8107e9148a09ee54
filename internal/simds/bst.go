package simds

import (
	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// This file hosts the Ellen et al. nonblocking BST (§3.2, §4.4, Figures 3
// and 5(a,c)) on the simulated machine. The baseline is the flag/help
// protocol with operation descriptors from the shared allocator,
// conservative publication fences (mirroring the paper's transliterated
// Java code), and epoch protection on every operation. PTO1 runs whole
// operations in one transaction — no descriptors, no epochs, no fences, no
// double-pass reads; PTO2 transacts only the update phase after an
// epoch-protected plain search; the composed variant tries PTO1 twice, PTO2
// sixteen times, then the original protocol. KeepFences retains the
// original fence placement inside transactions (Figure 5(c)).

// BSTKind selects the variant.
type BSTKind int

const (
	// BSTLockfree is the baseline Ellen et al. protocol.
	BSTLockfree BSTKind = iota
	// BSTPTO1 transacts whole operations (2 attempts).
	BSTPTO1
	// BSTPTO2 transacts update phases only (16 attempts).
	BSTPTO2
	// BSTPTO12 is the paper's composition: PTO1 ×2, then PTO2 ×16, then
	// the original protocol.
	BSTPTO12
)

// Paper-tuned attempt budgets (§4.4): PTO1 ×2, PTO2 ×16. These are the
// level defaults installed by NewSimBST; WithBudgets tunes them.
const (
	bstPTO1Budget = 2
	bstPTO2Budget = 16
)

// Node layout: +0 key, +1 flags (bit 0 = leaf), +2 update, +3 left,
// +4 right. Update word: descriptor address << 2 | state.
const (
	bstKey = iota
	bstFlags
	bstUpdate
	bstLeft
	bstRight
)

const bstNodeWords = 5

const (
	bstClean = iota
	bstIFlag
	bstDFlag
	bstMark
)

const (
	bstInf1 = ^uint64(1)
	bstInf2 = ^uint64(0)
)

func bstState(u uint64) uint64            { return u & 3 }
func bstDesc(u uint64) sim.Addr           { return sim.Addr(u >> 2) }
func bstUpd(d sim.Addr, st uint64) uint64 { return uint64(d)<<2 | st }

// IInfo descriptor layout: p, l, newInternal. DInfo: gp, p, l, pupdate.
const (
	iiP = iota
	iiL
	iiNew
)
const (
	diGP = iota
	diP
	diL
	diPupdate
)

// SimBST is the simulated Ellen et al. BST.
type SimBST struct {
	kind       BSTKind
	keepFences bool
	pto1, pto2 int // level attempt budgets
	pol        speculate.Policy
	conSite    *simspec.Site
	insSite    *simspec.Site
	rmSite     *simspec.Site
	root       sim.Addr
	dummy      sim.Addr // static dummy descriptor for transactional removals
	epoch      *Epoch
	retirers   []*Retirer
	nonce      []uint64 // per-thread fresh-clean-update counters
}

// NewSimBST builds an empty tree using setup thread t.
func NewSimBST(t *sim.Thread, kind BSTKind, keepFences bool, threads int) *SimBST {
	b := &SimBST{kind: kind, keepFences: keepFences, epoch: NewEpoch(t, threads),
		pto1: bstPTO1Budget, pto2: bstPTO2Budget, nonce: make([]uint64, 16)}
	for i := 0; i < threads; i++ {
		b.retirers = append(b.retirers, NewRetirer(b.epoch))
	}
	b.dummy = t.Alloc(4)
	l1 := b.newLeaf(t, bstInf1, false)
	l2 := b.newLeaf(t, bstInf2, false)
	b.root = b.newInternal(t, bstInf2, l1, l2, false)
	return b.WithPolicy(simspec.DefaultPolicy())
}

// Node constructors. The paper's baseline is a transliteration of Java code
// whose mutable node fields are volatile, ported as sequentially consistent
// std::atomic (§4.4) — on x86, every such store drains the store buffer, so
// fenced=true charges a fence per atomic field store. Inside an optimized
// prefix transaction those become relaxed accesses (fenced=false), one of
// the §4.6 latency sources.
// WithBudgets overrides the PTO1/PTO2 level budgets (defaults 2 and 16,
// the paper's §4.4 tuning). For the budget ablation; set before use.
func (b *SimBST) WithBudgets(a1, a2 int) *SimBST {
	if a1 > 0 {
		b.pto1 = a1
	}
	if a2 > 0 {
		b.pto2 = a2
	}
	return b.WithPolicy(b.pol)
}

// WithPolicy installs the speculation policy for the tree's three sites.
// Each site composes two levels, outermost first: pto1 (whole-operation
// transactions; an explicit abort there means the operation would have to
// help, which a retry will not fix, so the level does not retry on
// explicit) and pto2 (update-phase transactions; its explicit aborts are
// failed validations of a racing window, transient, so the level retries).
// The variant kind decides which levels an operation actually enters. Set
// before use.
func (b *SimBST) WithPolicy(p speculate.Policy) *SimBST {
	b.pol = p
	lv1 := speculate.Level{Name: "pto1", Attempts: b.pto1}
	lv2 := speculate.Level{Name: "pto2", Attempts: b.pto2, RetryExplicit: true}
	b.conSite = simspec.New("simbst/contains", p, lv1, lv2)
	b.insSite = simspec.New("simbst/insert", p, lv1, lv2)
	b.rmSite = simspec.New("simbst/remove", p, lv1, lv2)
	return b
}

func (b *SimBST) tryPTO1() bool { return b.kind == BSTPTO1 || b.kind == BSTPTO12 }
func (b *SimBST) tryPTO2() bool { return b.kind == BSTPTO2 || b.kind == BSTPTO12 }

func (b *SimBST) newLeaf(t *sim.Thread, key uint64, fenced bool) sim.Addr {
	n := t.Alloc(bstNodeWords)
	t.Store(n+bstKey, key)
	t.Store(n+bstFlags, 1)
	if fenced {
		t.Fence()
	}
	return n
}

func (b *SimBST) newInternal(t *sim.Thread, key uint64, left, right sim.Addr, fenced bool) sim.Addr {
	n := t.Alloc(bstNodeWords)
	t.Store(n+bstKey, key)
	t.Store(n+bstFlags, 0)
	t.Store(n+bstUpdate, bstUpd(0, bstClean))
	if fenced {
		t.Fence()
	}
	t.Store(n+bstLeft, uint64(left))
	if fenced {
		t.Fence()
	}
	t.Store(n+bstRight, uint64(right))
	if fenced {
		t.Fence()
	}
	return n
}

// searchTx is the PTO1 search: strong atomicity makes the per-node update
// field reads (the original's double-checking) unnecessary, so only keys
// and children are read on the way down and the relevant update fields are
// read once at the end.
func (b *SimBST) searchTx(t *sim.Thread, key uint64) (gp, p, l sim.Addr, pupd, gpupd uint64) {
	p = b.root
	l = sim.Addr(t.Load(p + bstLeft))
	for !b.isLeaf(t, l) {
		gp = p
		p = l
		if key < t.Load(p+bstKey) {
			l = sim.Addr(t.Load(p + bstLeft))
		} else {
			l = sim.Addr(t.Load(p + bstRight))
		}
	}
	pupd = t.Load(p + bstUpdate)
	if gp != 0 {
		gpupd = t.Load(gp + bstUpdate)
	}
	return
}

// freshClean returns a unique clean update word (the transactional
// refresh of §3.2: state stays clean but identity changes, preserving the
// "children change ⇒ update changes" invariant without a descriptor).
func (b *SimBST) freshClean(t *sim.Thread) uint64 {
	b.nonce[t.ID()]++
	return bstUpd(sim.Addr(uint64(t.ID()+1)<<40|b.nonce[t.ID()]), bstClean)
}

func (b *SimBST) isLeaf(t *sim.Thread, n sim.Addr) bool { return t.Load(n+bstFlags)&1 == 1 }

// search descends to key's leaf, reading each update field before the
// corresponding child pointer and re-reading it afterwards to confirm the
// (update, child) pair was consistent — the double-checking that §2.3 notes
// a prefix transaction renders redundant.
func (b *SimBST) search(t *sim.Thread, key uint64) (gp, p, l sim.Addr, pupd, gpupd uint64) {
retry:
	for {
		p = b.root
		pupd = t.Load(p + bstUpdate)
		l = sim.Addr(t.Load(p + bstLeft))
		for !b.isLeaf(t, l) {
			gp, gpupd = p, pupd
			p = l
			pupd = t.Load(p + bstUpdate)
			if key < t.Load(p+bstKey) {
				l = sim.Addr(t.Load(p + bstLeft))
			} else {
				l = sim.Addr(t.Load(p + bstRight))
			}
			if t.Load(p+bstUpdate) != pupd {
				continue retry // the pair moved under us; re-descend
			}
		}
		return
	}
}

// Contains reports membership.
func (b *SimBST) Contains(t *sim.Thread, key uint64) bool {
	if b.tryPTO1() {
		r := b.conSite.Begin(t)
		for r.Next(0) {
			found := false
			st := r.Try(func() {
				_, _, l, _, _ := b.searchTx(t, key)
				found = t.Load(l+bstKey) == key
			})
			if st == sim.OK {
				return found
			}
		}
		r.Fallback()
	}
	b.epoch.Enter(t)
	defer b.epoch.Exit(t)
	_, _, l, _, _ := b.search(t, key)
	return t.Load(l+bstKey) == key
}

// buildInsert allocates the replacement subtree (three nodes).
func (b *SimBST) buildInsert(t *sim.Thread, key, lkey uint64, fenced bool) sim.Addr {
	nl := b.newLeaf(t, key, fenced)
	lc := b.newLeaf(t, lkey, fenced)
	ikey, left, right := lkey, lc, nl
	if key < lkey {
		ikey, left, right = lkey, nl, lc
	} else if key > lkey {
		ikey = key
	}
	return b.newInternal(t, ikey, left, right, fenced)
}

// storeChild stores new into whichever child slot of parent holds old
// (transactional path).
func (b *SimBST) storeChild(t *sim.Thread, parent, old, new sim.Addr) {
	if sim.Addr(t.Load(parent+bstLeft)) == old {
		t.Store(parent+bstLeft, uint64(new))
	} else {
		t.Store(parent+bstRight, uint64(new))
	}
}

func (b *SimBST) casChild(t *sim.Thread, parent, old, new sim.Addr) {
	if sim.Addr(t.Load(parent+bstLeft)) == old {
		t.CAS(parent+bstLeft, uint64(old), uint64(new))
	} else {
		t.CAS(parent+bstRight, uint64(old), uint64(new))
	}
}

// Insert adds key, reporting false if present.
func (b *SimBST) Insert(t *sim.Thread, key uint64) bool {
	if b.kind == BSTLockfree {
		return b.insertLF(t, key)
	}
	r := b.insSite.Begin(t)
	if b.tryPTO1() {
		for r.Next(0) {
			var result bool
			st := r.Try(func() {
				_, p, l, pupd, _ := b.searchTx(t, key)
				if t.Load(l+bstKey) == key {
					result = false
					return
				}
				if bstState(pupd) != bstClean {
					t.TxAbort(1) // would need helping (§2.4)
				}
				ni := b.buildInsert(t, key, t.Load(l+bstKey), b.keepFences)
				b.storeChild(t, p, l, ni)
				t.Store(p+bstUpdate, b.freshClean(t))
				result = true
			})
			if st == sim.OK {
				return result
			}
		}
	}
	if b.tryPTO2() {
		b.epoch.Enter(t)
		for r.Next(1) {
			_, p, l, pupd, _ := b.search(t, key)
			lkey := t.Load(l + bstKey)
			if lkey == key {
				b.epoch.Exit(t)
				return false
			}
			if bstState(pupd) != bstClean {
				r.Skip() // a racing update holds the window: not worth a tx
				continue
			}
			ni := b.buildInsert(t, key, lkey, true)
			st := r.Try(func() {
				if t.Load(p+bstUpdate) != pupd {
					t.TxAbort(1)
				}
				var cur sim.Addr
				if key < t.Load(p+bstKey) {
					cur = sim.Addr(t.Load(p + bstLeft))
				} else {
					cur = sim.Addr(t.Load(p + bstRight))
				}
				if cur != l {
					t.TxAbort(1)
				}
				b.storeChild(t, p, l, ni)
				t.Store(p+bstUpdate, b.freshClean(t))
			})
			if st == sim.OK {
				b.epoch.Exit(t)
				return true
			}
		}
		b.epoch.Exit(t)
	}
	r.Fallback()
	return b.insertLF(t, key)
}

func (b *SimBST) insertLF(t *sim.Thread, key uint64) bool {
	b.epoch.Enter(t)
	defer b.epoch.Exit(t)
	for {
		_, p, l, pupd, _ := b.search(t, key)
		lkey := t.Load(l + bstKey)
		if lkey == key {
			return false
		}
		if bstState(pupd) != bstClean {
			b.help(t, pupd)
			continue
		}
		ni := b.buildInsert(t, key, lkey, true)
		desc := t.Alloc(3)
		t.Store(desc+iiP, uint64(p))
		t.Store(desc+iiL, uint64(l))
		t.Store(desc+iiNew, uint64(ni))
		t.Fence() // publish the descriptor
		iflag := bstUpd(desc, bstIFlag)
		if t.CAS(p+bstUpdate, pupd, iflag) {
			b.helpInsert(t, iflag)
			return true
		}
		b.help(t, t.Load(p+bstUpdate))
	}
}

// Remove deletes key, reporting false if absent.
func (b *SimBST) Remove(t *sim.Thread, key uint64) bool {
	if b.kind == BSTLockfree {
		return b.removeLF(t, key)
	}
	r := b.rmSite.Begin(t)
	if b.tryPTO1() {
		for r.Next(0) {
			var result bool
			var vp, vl sim.Addr
			st := r.Try(func() {
				gp, p, l, pupd, gpupd := b.searchTx(t, key)
				if t.Load(l+bstKey) != key {
					result = false
					return
				}
				if bstState(gpupd) != bstClean || bstState(pupd) != bstClean {
					t.TxAbort(1)
				}
				b.txSplice(t, gp, p, l)
				vp, vl = p, l
				result = true
			})
			if st == sim.OK {
				if result {
					b.retirers[t.ID()].Retire(t, vp, bstNodeWords)
					b.retirers[t.ID()].Retire(t, vl, bstNodeWords)
				}
				return result
			}
		}
	}
	if b.tryPTO2() {
		b.epoch.Enter(t)
		for r.Next(1) {
			gp, p, l, pupd, gpupd := b.search(t, key)
			if t.Load(l+bstKey) != key {
				b.epoch.Exit(t)
				return false
			}
			if bstState(gpupd) != bstClean || bstState(pupd) != bstClean {
				r.Skip() // a racing update holds the window: not worth a tx
				continue
			}
			st := r.Try(func() {
				if t.Load(gp+bstUpdate) != gpupd || t.Load(p+bstUpdate) != pupd {
					t.TxAbort(1)
				}
				var curP sim.Addr
				if key < t.Load(gp+bstKey) {
					curP = sim.Addr(t.Load(gp + bstLeft))
				} else {
					curP = sim.Addr(t.Load(gp + bstRight))
				}
				if curP != p {
					t.TxAbort(1)
				}
				var curL sim.Addr
				if key < t.Load(p+bstKey) {
					curL = sim.Addr(t.Load(p + bstLeft))
				} else {
					curL = sim.Addr(t.Load(p + bstRight))
				}
				if curL != l {
					t.TxAbort(1)
				}
				b.txSplice(t, gp, p, l)
			})
			if st == sim.OK {
				b.retirers[t.ID()].Retire(t, p, bstNodeWords)
				b.retirers[t.ID()].Retire(t, l, bstNodeWords)
				b.epoch.Exit(t)
				return true
			}
		}
		b.epoch.Exit(t)
	}
	r.Fallback()
	return b.removeLF(t, key)
}

// txSplice is the transactional removal: mark p with the dummy descriptor,
// swing gp's child to the sibling, refresh gp's update word.
func (b *SimBST) txSplice(t *sim.Thread, gp, p, l sim.Addr) {
	var other sim.Addr
	if sim.Addr(t.Load(p+bstRight)) == l {
		other = sim.Addr(t.Load(p + bstLeft))
	} else {
		other = sim.Addr(t.Load(p + bstRight))
	}
	t.Store(p+bstUpdate, bstUpd(b.dummy, bstMark))
	if b.keepFences {
		t.Fence()
	}
	b.storeChild(t, gp, p, other)
	t.Store(gp+bstUpdate, b.freshClean(t))
	if b.keepFences {
		t.Fence()
	}
}

func (b *SimBST) removeLF(t *sim.Thread, key uint64) bool {
	b.epoch.Enter(t)
	defer b.epoch.Exit(t)
	for {
		gp, p, l, pupd, gpupd := b.search(t, key)
		if t.Load(l+bstKey) != key {
			return false
		}
		if bstState(gpupd) != bstClean {
			b.help(t, gpupd)
			continue
		}
		if bstState(pupd) != bstClean {
			b.help(t, pupd)
			continue
		}
		desc := t.Alloc(4)
		t.Store(desc+diGP, uint64(gp))
		t.Store(desc+diP, uint64(p))
		t.Store(desc+diL, uint64(l))
		t.Store(desc+diPupdate, pupd)
		t.Fence() // publish the descriptor
		dflag := bstUpd(desc, bstDFlag)
		if t.CAS(gp+bstUpdate, gpupd, dflag) {
			if b.helpDelete(t, dflag) {
				b.retirers[t.ID()].Retire(t, p, bstNodeWords)
				b.retirers[t.ID()].Retire(t, l, bstNodeWords)
				return true
			}
		} else {
			b.help(t, t.Load(gp+bstUpdate))
		}
	}
}

func (b *SimBST) help(t *sim.Thread, u uint64) {
	switch bstState(u) {
	case bstIFlag:
		b.helpInsert(t, u)
	case bstDFlag:
		b.helpDelete(t, u)
	case bstMark:
		desc := bstDesc(u)
		if desc == b.dummy || uint64(desc)>>40 != 0 {
			return // transactional removal or nonce: already complete
		}
		gp := sim.Addr(t.Load(desc + diGP))
		g := t.Load(gp + bstUpdate)
		if g == bstUpd(desc, bstDFlag) {
			b.helpMarked(t, g)
		}
	}
}

func (b *SimBST) helpInsert(t *sim.Thread, u uint64) {
	desc := bstDesc(u)
	p := sim.Addr(t.Load(desc + iiP))
	l := sim.Addr(t.Load(desc + iiL))
	ni := sim.Addr(t.Load(desc + iiNew))
	b.casChild(t, p, l, ni)
	t.CAS(p+bstUpdate, u, bstUpd(desc, bstClean))
}

func (b *SimBST) helpDelete(t *sim.Thread, u uint64) bool {
	desc := bstDesc(u)
	p := sim.Addr(t.Load(desc + diP))
	pupd := t.Load(desc + diPupdate)
	mark := bstUpd(desc, bstMark)
	if t.CAS(p+bstUpdate, pupd, mark) {
		b.helpMarked(t, u)
		return true
	}
	cur := t.Load(p + bstUpdate)
	if cur == mark {
		b.helpMarked(t, u)
		return true
	}
	b.help(t, cur)
	gp := sim.Addr(t.Load(desc + diGP))
	t.CAS(gp+bstUpdate, u, bstUpd(desc, bstClean))
	return false
}

func (b *SimBST) helpMarked(t *sim.Thread, u uint64) {
	desc := bstDesc(u)
	gp := sim.Addr(t.Load(desc + diGP))
	p := sim.Addr(t.Load(desc + diP))
	l := sim.Addr(t.Load(desc + diL))
	var other sim.Addr
	if sim.Addr(t.Load(p+bstRight)) == l {
		other = sim.Addr(t.Load(p + bstLeft))
	} else {
		other = sim.Addr(t.Load(p + bstRight))
	}
	b.casChild(t, gp, p, other)
	t.CAS(gp+bstUpdate, u, bstUpd(desc, bstClean))
}

// Keys returns the user keys in order (setup/verification helper).
func (b *SimBST) Keys(t *sim.Thread) []uint64 {
	var out []uint64
	var walk func(n sim.Addr)
	walk = func(n sim.Addr) {
		if b.isLeaf(t, n) {
			if k := t.Load(n + bstKey); k < bstInf1 {
				out = append(out, k)
			}
			return
		}
		walk(sim.Addr(t.Load(n + bstLeft)))
		walk(sim.Addr(t.Load(n + bstRight)))
	}
	walk(b.root)
	return out
}
