package hashtable

import (
	"math/bits"

	"repro/internal/epoch"
	"repro/internal/htm"
	"repro/internal/speculate"
	"repro/internal/txn"
)

// This file is the hash table's adapter to the transactional composition
// layer (internal/txn). The copy-on-write layout makes the footprint tiny:
// an operation's whole validated state is the head pointer plus one bucket
// pointer (two or three for a lookup crossing a resize boundary), so a
// composed fallback publication over the table costs only a few MultiCAS
// legs.
//
// Slow-path conditions follow the structure's own discipline: on the fast
// path an uninitialized or frozen bucket aborts the transaction (§2.4 —
// don't do helping work speculatively); in capture mode the adapter runs
// initBucket directly (the helping the fallback would do) and restarts.

// NewPTOTableIn returns an empty PTO-accelerated table living in the shared
// domain d, so it can participate in composed transactions with other
// structures in d. Arguments follow NewPTOTable.
func NewPTOTableIn(d *htm.Domain, buckets, attempts int) *PTOTable {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	buckets = 1 << bits.Len(uint(buckets-1))
	if buckets < 2 {
		buckets = 2
	}
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	t := &PTOTable{domain: d, mgr: epoch.NewManager(), attempts: attempts}
	t.handles.New = func() any { return t.mgr.Register() }
	t.WithPolicy(speculate.Fixed(0))
	t.head.Init(t.domain, nil)
	htm.Store(nil, &t.head, t.newHNode(buckets, nil))
	return t
}

// ctxBucket reads the bucket for key, handling the uninitialized case:
// abort on the fast path, help (initBucket) and restart in capture mode.
func (t *PTOTable) ctxBucket(c *txn.Ctx, hd *pthnode, i int) *fnode {
	b := txn.Read(c, &hd.buckets[i])
	if b == nil {
		if !c.Speculative() {
			t.initBucket(hd, i)
		}
		c.Retry()
	}
	return b
}

// TxContains reports whether key is present, as part of a composed
// transaction. Like the structure's own transactional lookup it may read
// through to the predecessor table instead of forcing initialization.
func (t *PTOTable) TxContains(c *txn.Ctx, key int64) bool {
	hd := txn.Read(c, &t.head)
	i := index(key, hd.size)
	b := txn.Read(c, &hd.buckets[i])
	if b == nil {
		pred := txn.Read(c, &hd.pred)
		if pred == nil {
			if !c.Speculative() {
				t.initBucket(hd, i)
			}
			c.Retry()
		}
		if hd.size == pred.size*2 {
			b = txn.Read(c, &pred.buckets[index(key, pred.size)])
		} else {
			b = txn.Read(c, &pred.buckets[i])
			if b != nil && b.contains(key) {
				return true
			}
			b = txn.Read(c, &pred.buckets[i+hd.size])
		}
		if b == nil {
			if !c.Speculative() {
				t.initBucket(hd, i)
			}
			c.Retry()
		}
	}
	return b.contains(key)
}

// TxInsert adds key, reporting false if already present, as part of a
// composed transaction.
func (t *PTOTable) TxInsert(c *txn.Ctx, key int64) bool {
	hd := txn.Read(c, &t.head)
	i := index(key, hd.size)
	b := t.ctxBucket(c, hd, i)
	if !b.ok {
		// Frozen: a resize is migrating this bucket; by the time we re-run,
		// re-reading t.head observes the replacement table.
		c.Retry()
	}
	if b.contains(key) {
		return false
	}
	vals := make([]int64, 0, len(b.vals)+1)
	vals = append(vals, b.vals...)
	vals = append(vals, key)
	txn.Write(c, &hd.buckets[i], &fnode{vals: vals, ok: true})
	c.OnCommit(func() { t.bump(1) })
	return true
}

// TxRemove deletes key, reporting false if absent, as part of a composed
// transaction.
func (t *PTOTable) TxRemove(c *txn.Ctx, key int64) bool {
	hd := txn.Read(c, &t.head)
	i := index(key, hd.size)
	b := t.ctxBucket(c, hd, i)
	if !b.ok {
		c.Retry()
	}
	if !b.contains(key) {
		return false
	}
	vals := make([]int64, 0, len(b.vals))
	for _, v := range b.vals {
		if v != key {
			vals = append(vals, v)
		}
	}
	txn.Write(c, &hd.buckets[i], &fnode{vals: vals, ok: true})
	c.OnCommit(func() { t.count.Add(-1) })
	return true
}
