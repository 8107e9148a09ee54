package simds

import (
	"repro/internal/hashtable"
	"repro/internal/sim"
	"repro/internal/simtxn"
)

// This file adapts the simulated BST, hash table, skiplist, Harris list and
// priority queue to internal/simtxn, mirroring the real structures' Tx*
// adapters for internal/txn (the MS queue's are internal/msqueue's). They
// follow the layer's two conventions (see the simtxn package comment):
//
//   - Marker bit: only words whose legitimate values keep bit 63 clear are
//     Read or Written — child pointers, update words, bucket words, queue
//     head/tail/next words. Key words (whose sentinels use the full range)
//     and value arrays are only ever read with PeekRaw, which skips the
//     marker check; that is sound because no adapter Reads or Writes them,
//     so no MultiCAS ever claims them.
//
//   - Closed world: while composed operations run, all mutations of the
//     participating structures go through the composition layer, so no
//     structure-private descriptor or in-place protocol runs concurrently.
//     Composed removals leak the unlinked nodes instead of retiring them
//     (no epoch bracket is active inside a composed body); the simulated
//     machine never reuses addresses, so stale readers stay safe.
//
// Validation follows each structure's PTO2-style window: traversals are
// Peeks, and only the words whose stability implies the answer's are Read.

// txDescend descends to key's leaf with Peek reads, returning the
// grandparent, parent, and leaf, plus the addresses of the child slots
// followed out of gp and p. gp and gpSlot are zero when l hangs directly
// off the root.
func (b *SimBST) txDescend(c *simtxn.Ctx, key uint64) (gp, p, l, gpSlot, slot sim.Addr) {
	p = b.root
	slot = p + bstLeft
	l = sim.Addr(c.Peek(slot))
	for c.Peek(l+bstFlags)&1 == 0 {
		gp, gpSlot = p, slot
		p = l
		if key < c.PeekRaw(p+bstKey) {
			slot = p + bstLeft
		} else {
			slot = p + bstRight
		}
		l = sim.Addr(c.Peek(slot))
	}
	return
}

// txWindow validates the (parent update word, child slot) pair that led to
// l: the update word must be clean and the slot must still hold l. The
// "children change ⇒ update word changes" invariant then pins the leaf —
// and with it the membership answer — for the life of the validation.
func (b *SimBST) txWindow(c *simtxn.Ctx, p, l, slot sim.Addr) {
	if bstState(c.Read(p+bstUpdate)) != bstClean {
		c.Retry()
	}
	if sim.Addr(c.Read(slot)) != l {
		c.Retry()
	}
}

// TxContains reports membership as part of a composed operation.
func (b *SimBST) TxContains(c *simtxn.Ctx, key uint64) bool {
	_, p, l, _, slot := b.txDescend(c, key)
	b.txWindow(c, p, l, slot)
	return c.PeekRaw(l+bstKey) == key
}

// TxInsert adds key as part of a composed operation, reporting false if
// present.
func (b *SimBST) TxInsert(c *simtxn.Ctx, key uint64) bool {
	t := c.Thread()
	_, p, l, _, slot := b.txDescend(c, key)
	b.txWindow(c, p, l, slot)
	lkey := c.PeekRaw(l + bstKey)
	if lkey == key {
		return false
	}
	// The replacement subtree is private until the commit publishes the
	// child slot, so it is built with plain stores.
	ni := b.buildInsert(t, key, lkey, false)
	c.Write(slot, uint64(ni))
	c.Write(p+bstUpdate, b.freshClean(t))
	return true
}

// TxRemove deletes key as part of a composed operation, reporting false if
// absent.
func (b *SimBST) TxRemove(c *simtxn.Ctx, key uint64) bool {
	t := c.Thread()
	gp, p, l, gpSlot, slot := b.txDescend(c, key)
	b.txWindow(c, p, l, slot)
	if c.PeekRaw(l+bstKey) != key {
		return false
	}
	if gp == 0 {
		// Real keys always sit at depth ≥ 2 (inserts replace sentinel
		// leaves with internal nodes), so a root-level leaf can only be a
		// sentinel — unreachable for a key that just compared equal.
		c.Retry()
	}
	if bstState(c.Read(gp+bstUpdate)) != bstClean {
		c.Retry()
	}
	if sim.Addr(c.Read(gpSlot)) != p {
		c.Retry()
	}
	var other sim.Addr
	if sim.Addr(c.Peek(p+bstRight)) == l {
		other = sim.Addr(c.Peek(p + bstLeft))
	} else {
		other = sim.Addr(c.Peek(p + bstRight))
	}
	c.Write(p+bstUpdate, bstUpd(b.dummy, bstMark))
	c.Write(gpSlot, uint64(other))
	c.Write(gp+bstUpdate, b.freshClean(t))
	return true
}

// The hash table's composed adapters are hashtable/algo.go's TxContains
// and TxUpdate over hashCtx. The head is a Peek: the validation window is
// the bucket word, since copy-on-write updates replace the node and bump
// the counter, so a stable bucket word pins the bucket's contents, and a
// frozen bucket retries. Composed updates never grow the table, so a table
// stabilized before they run stays resize-free.

// TxContains reports membership as part of a composed operation.
func (h *SimHash) TxContains(c *simtxn.Ctx, key uint64) bool {
	x := h.ctx(c)
	return hashtable.TxContains((*hashMem)(x), x, x.head(), int64(key))
}

// TxInsert adds key as part of a composed operation, reporting false if
// present.
func (h *SimHash) TxInsert(c *simtxn.Ctx, key uint64) bool {
	x := h.ctx(c)
	return hashtable.TxUpdate((*hashMem)(x), x, x.head(), int64(key), true)
}

// TxRemove deletes key as part of a composed operation, reporting false if
// absent.
func (h *SimHash) TxRemove(c *simtxn.Ctx, key uint64) bool {
	x := h.ctx(c)
	return hashtable.TxUpdate((*hashMem)(x), x, x.head(), int64(key), false)
}

// hashCtx is a composed operation's hashtable.TxMem: the bucket word is
// Read, the rest Peeked, and a node's length and values, which no adapter
// Reads or Writes, are PeekRaw. Updates are copy-on-write even for the
// in-place variant: one staged bucket-word write keeps the MultiCAS
// footprint at one word per set operation.
type hashCtx hashMem

// ctx is c's thread's hashCtx on h.
func (h *SimHash) ctx(c *simtxn.Ctx) *hashCtx {
	m := h.mem(c.Thread())
	m.c = c
	return (*hashCtx)(m)
}

func (x *hashCtx) head() hashtable.Gen { return hashtable.Gen{Addr: x.c.Peek(x.h.headPtr)} }

func (x *hashCtx) Size(g hashtable.Gen) int {
	return int(x.c.Peek(sim.Addr(g.Addr) + hnSize))
}

func (x *hashCtx) Pred(g hashtable.Gen) hashtable.Gen {
	return hashtable.Gen{Addr: x.c.Peek(sim.Addr(g.Addr) + hnPred)}
}

// Find reads the word, the flags, the length and the values up to key.
func (x *hashCtx) Find(g hashtable.Gen, i int, key int64) (hashtable.Word, int, int, hashtable.State) {
	c := x.c
	w := c.Read(bucketWord(g, i))
	n := hbNode(w)
	if n == 0 {
		return hashtable.Word{Bits: w}, 0, -1, hashtable.Uninit
	}
	st := hashtable.Live
	if c.Peek(n+fsFlags)&1 == 0 {
		st = hashtable.Frozen
	}
	ln := c.PeekRaw(n + fsLen)
	for j := uint64(0); j < ln; j++ {
		if c.PeekRaw(n+fsVals+sim.Addr(j)) == uint64(key) {
			return hashtable.Word{Bits: w}, int(ln), int(j), st
		}
	}
	return hashtable.Word{Bits: w}, int(ln), -1, st
}

func (x *hashCtx) Lookup(g hashtable.Gen, i int, key int64) (bool, hashtable.State) {
	_, _, at, st := x.Find(g, i, key)
	return at >= 0, st
}

// Put reads the length and the values again and stages the copy.
func (x *hashCtx) Put(g hashtable.Gen, i int, w hashtable.Word, _, _ int, key int64, add bool) {
	c, n := x.c, hbNode(w.Bits)
	ln := c.PeekRaw(n + fsLen)
	vals := x.snap[:0]
	for j := uint64(0); j < ln; j++ {
		vals = append(vals, int64(c.PeekRaw(n+fsVals+sim.Addr(j))))
	}
	x.snap = vals
	nn := (*hashMem)(x).copyNode(vals, key, add) // private until the bucket word publishes it
	c.Write(bucketWord(g, i), hbPack(nn, hbCtr(w.Bits)+1))
}

func (x *hashCtx) Abort(int)         { x.c.Retry() }
func (x *hashCtx) Speculative() bool { return x.c.Speculative() }

// txFind is the skiplist's non-helping search (cf. the runtime adapter in
// internal/skiplist): marked nodes are skipped in place rather than snipped,
// because a next word, once marked, is never written again — so a chain of
// marked nodes between a validated predecessor and its successor is
// immutable, and recording just the predecessor's word proves the whole gap
// unchanged. Next words keep bit 63 clear (line-aligned addresses with the
// mark in bit 0), so they are Read/Write-safe; key words use PeekRaw (the
// tail sentinel is all-ones).
func (s *SimSkip) txFind(c *simtxn.Ctx, key uint64, preds, succs *[SkipMaxLevel]sim.Addr, pws *[SkipMaxLevel]uint64) bool {
	pred := s.head
	for lvl := SkipMaxLevel - 1; lvl >= 0; lvl-- {
		pw := c.Peek(skipNext(pred, lvl))
		if pw&1 != 0 {
			c.Retry() // pred was deleted under us; re-run the body
		}
		curr := skipAddr(pw)
		for {
			cw := c.Peek(skipNext(curr, lvl))
			for cw&1 != 0 {
				curr = skipAddr(cw)
				cw = c.Peek(skipNext(curr, lvl))
			}
			if c.PeekRaw(curr) < key {
				pred, pw, curr = curr, cw, skipAddr(cw)
			} else {
				break
			}
		}
		preds[lvl], succs[lvl], pws[lvl] = pred, curr, pw
	}
	return c.PeekRaw(succs[0]) == key
}

// TxContains reports membership as part of a composed operation. Presence
// is witnessed by the key node's own unmarked level-0 word; absence by the
// predecessor's level-0 word spanning the gap.
func (s *SimSkip) TxContains(c *simtxn.Ctx, key uint64) bool {
	var preds, succs [SkipMaxLevel]sim.Addr
	var pws [SkipMaxLevel]uint64
	if s.txFind(c, key, &preds, &succs, &pws) {
		if c.Read(skipNext(succs[0], 0))&1 != 0 {
			c.Retry() // deleted between search and record; re-run
		}
		return true
	}
	if c.Read(skipNext(preds[0], 0)) != pws[0] {
		c.Retry()
	}
	return false
}

// TxInsert adds key as part of a composed operation, reporting false if
// present. All top+1 predecessor links swing to the new node in the one
// atomic step, as in the structure's own prefix transaction.
func (s *SimSkip) TxInsert(c *simtxn.Ctx, key uint64) bool {
	t := c.Thread()
	var preds, succs [SkipMaxLevel]sim.Addr
	var pws [SkipMaxLevel]uint64
	if s.txFind(c, key, &preds, &succs, &pws) {
		if c.Read(skipNext(succs[0], 0))&1 != 0 {
			c.Retry()
		}
		return false
	}
	top := s.randomLevel(t)
	for l := 0; l <= top; l++ {
		if c.Read(skipNext(preds[l], l)) != pws[l] {
			c.Retry()
		}
	}
	n := s.newNode(t, key, top, &succs) // private until the commit publishes the links
	for l := 0; l <= top; l++ {
		c.Write(skipNext(preds[l], l), uint64(n))
	}
	return true
}

// TxRemove deletes key as part of a composed operation, reporting false if
// absent: every level of the victim is marked in the one atomic step. Unlike
// the runtime adapter there is no post-commit physical unlink — the
// structure's own find uses raw loads, which cannot run while other threads'
// MultiCAS descriptors may hold marker claims on next words. Marked nodes
// stay linked (and leak — closed world, no epoch bracket) until a later
// composed insert swings a predecessor word over them.
func (s *SimSkip) TxRemove(c *simtxn.Ctx, key uint64) bool {
	var preds, succs [SkipMaxLevel]sim.Addr
	var pws [SkipMaxLevel]uint64
	if !s.txFind(c, key, &preds, &succs, &pws) {
		if c.Read(skipNext(preds[0], 0)) != pws[0] {
			c.Retry()
		}
		return false
	}
	victim := succs[0]
	w0 := c.Read(skipNext(victim, 0))
	if w0&1 != 0 {
		return false // lost the race: linearized as "absent"
	}
	top := int(c.PeekRaw(victim + 1))
	for l := top; l >= 1; l-- {
		w := c.Read(skipNext(victim, l))
		if w&1 == 0 {
			c.Write(skipNext(victim, l), w|1)
		}
	}
	c.Write(skipNext(victim, 0), w0|1)
	return true
}

// txListSearch is the Harris list's non-helping search, the single-level
// analogue of SimSkip.txFind: marked nodes are skipped in place (a next
// word, once marked, is never written again, so the chain of corpses
// between a validated predecessor and curr is immutable), pred only ever
// advances onto nodes whose next word was observed unmarked, and pw — the
// predecessor's observed next word — is the one word whose stability pins
// the whole gap. Next words are line-aligned addresses with the mark in
// bit 0 (bit 63 clear: Read/Write-safe); key words use PeekRaw (the tail
// sentinel is all-ones).
func (l *SimList) txListSearch(c *simtxn.Ctx, key uint64) (pred, curr sim.Addr, pw uint64) {
	pred = l.head
	pw = c.Peek(pred + 1)
	if pw&1 != 0 {
		c.Retry() // the head is never removed; claimed mid-protocol
	}
	curr = sim.Addr(pw &^ 1)
	for {
		cw := c.Peek(curr + 1)
		for cw&1 != 0 {
			curr = sim.Addr(cw &^ 1)
			cw = c.Peek(curr + 1)
		}
		if c.PeekRaw(curr) < key {
			pred, pw, curr = curr, cw, sim.Addr(cw&^1)
		} else {
			return
		}
	}
}

// TxContains reports membership as part of a composed operation. Presence
// is witnessed by the key node's own unmarked next word; absence by the
// predecessor's next word spanning the gap.
func (l *SimList) TxContains(c *simtxn.Ctx, key uint64) bool {
	pred, curr, pw := l.txListSearch(c, key)
	if c.PeekRaw(curr) == key {
		if c.Read(curr+1)&1 != 0 {
			c.Retry() // deleted between search and record; re-run
		}
		return true
	}
	if c.Read(pred+1) != pw {
		c.Retry()
	}
	return false
}

// TxInsert adds key as part of a composed operation, reporting false if
// present. The node is private until the commit publishes the predecessor's
// next word — the same single-word publication as the structure's own
// prefix transaction.
func (l *SimList) TxInsert(c *simtxn.Ctx, key uint64) bool {
	t := c.Thread()
	pred, curr, pw := l.txListSearch(c, key)
	if c.PeekRaw(curr) == key {
		if c.Read(curr+1)&1 != 0 {
			c.Retry()
		}
		return false
	}
	if c.Read(pred+1) != pw {
		c.Retry()
	}
	n := t.AllocLocal(listNodeWords)
	t.Store(n, key)
	t.Store(n+1, uint64(curr))
	c.Write(pred+1, uint64(n))
	return true
}

// TxRemove deletes key as part of a composed operation, reporting false if
// absent. Unlike the multi-level SimSkip — whose composed removal can only
// mark — the single-level list marks AND snips in the one atomic step:
// the victim's next word takes the mark and the predecessor's next word
// swings past it (and past any already-marked corpses in between, which
// are immutable) in the same publication. The snipped node leaks (closed
// world, no epoch bracket); the simulated machine never reuses addresses,
// so stale readers stay safe.
func (l *SimList) TxRemove(c *simtxn.Ctx, key uint64) bool {
	pred, curr, pw := l.txListSearch(c, key)
	if c.PeekRaw(curr) != key {
		if c.Read(pred+1) != pw {
			c.Retry()
		}
		return false
	}
	w0 := c.Read(curr + 1)
	if w0&1 != 0 {
		return false // lost the race: linearized as "absent"
	}
	if c.Read(pred+1) != pw {
		c.Retry()
	}
	c.Write(curr+1, w0|1)
	c.Write(pred+1, w0&^1)
	return true
}

// TxPush inserts prio as part of a composed operation (duplicates allowed),
// mirroring SimSkipQ.Push: the priority is widened with a per-thread
// duplicate-breaking sequence field and inserted into the underlying set.
// The sequence counter is plain per-thread state outside the transactional
// footprint; a re-run of an aborted body burns sequence numbers, which is
// harmless — only uniqueness matters, not density.
func (q *SimSkipQ) TxPush(c *simtxn.Ctx, prio uint64) {
	t := c.Thread()
	for {
		q.seq[t.ID()]++
		key := prio<<SkipQSeqBits | (uint64(t.ID())<<14|q.seq[t.ID()])&(1<<SkipQSeqBits-1)
		if q.set.TxInsert(c, key) {
			return
		}
	}
}

// txMinNode walks from the head's validated level-0 word past marked
// corpses to the first live node, returning it and its unmarked level-0
// word. The head word joins the footprint (Read); the corpse chain is
// Peek-only — a next word, once marked, is never written again, so the
// validated head word pins the whole gap. Any composed insert of a smaller
// key must swing the head's own level-0 word (every node in the gap is
// marked, so txFind's predecessor is the head), which the commit-time
// validation of that word detects. The caller decides whether the live
// node's own word joins the footprint.
func (q *SimSkipQ) txMinNode(c *simtxn.Ctx) (curr sim.Addr, w0 uint64, ok bool) {
	s := q.set
	w := c.Read(skipNext(s.head, 0))
	if w&1 != 0 {
		c.Retry() // head sentinel is never removed; claimed mid-protocol
	}
	curr = skipAddr(w)
	for {
		cw := c.Peek(skipNext(curr, 0))
		if cw&1 == 0 {
			break
		}
		curr = skipAddr(cw)
	}
	if c.PeekRaw(curr) == skipTailKey {
		return 0, 0, false // empty: witnessed by the head word + immutable corpses
	}
	w0 = c.Read(skipNext(curr, 0))
	if w0&1 != 0 {
		c.Retry() // claimed between traversal and record; re-run the body
	}
	return curr, w0, true
}

// TxMin reads the minimum priority without removing it as part of a
// composed operation, reporting false when empty. Read-only: the head word
// and the minimum's own level-0 word are the whole validated footprint.
func (q *SimSkipQ) TxMin(c *simtxn.Ctx) (uint64, bool) {
	curr, _, ok := q.txMinNode(c)
	if !ok {
		return 0, false
	}
	return c.PeekRaw(curr) >> SkipQSeqBits, true
}

// TxPopMin removes and returns the minimum priority as part of a composed
// operation, reporting false when empty. The claim is the §3.1 remove
// transformation staged through the composition layer: every level of the
// minimum is marked in the one atomic step. As with SimSkip.TxRemove there
// is no physical unlink and the node leaks (closed world, no epoch
// bracket); later composed operations traverse past the corpse.
func (q *SimSkipQ) TxPopMin(c *simtxn.Ctx) (uint64, bool) {
	curr, w0, ok := q.txMinNode(c)
	if !ok {
		return 0, false
	}
	key := c.PeekRaw(curr)
	top := int(c.PeekRaw(curr + 1))
	for l := top; l >= 1; l-- {
		w := c.Read(skipNext(curr, l))
		if w&1 == 0 {
			c.Write(skipNext(curr, l), w|1)
		}
	}
	c.Write(skipNext(curr, 0), w0|1)
	return key >> SkipQSeqBits, true
}
