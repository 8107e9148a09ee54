package hashtable

import (
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
// legs. The adapters are algo.go's TxUpdate and TxContains over ptoCtx.

// NewPTOTableIn returns an empty PTO-accelerated table living in the shared
// domain d, so it can participate in composed transactions with other
// structures in d. Arguments follow NewPTOTable.
func NewPTOTableIn(d *htm.Domain, buckets, attempts int) *PTOTable {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	t := &PTOTable{domain: d, mgr: epoch.NewManager(), attempts: attempts}
	t.handles.New = func() any { return t.mgr.Register() }
	t.onInsert = func() { t.mem().Count(0, true) } // the runtime count needs no key
	t.onRemove = func() { t.mem().Count(0, false) }
	t.WithPolicy(speculate.Fixed(0))
	t.head.Init(t.domain, nil)
	htm.Store(nil, &t.head, t.newHNode(roundBuckets(buckets), nil))
	return t
}

// TxContains reports whether key is present, as part of a composed
// transaction.
func (t *PTOTable) TxContains(c *txn.Ctx, key int64) bool {
	return TxContains(t.mem(), (*ptoCtx)(c), t.txHead(c), key)
}

// TxInsert adds key, reporting false if already present, as part of a
// composed transaction.
func (t *PTOTable) TxInsert(c *txn.Ctx, key int64) bool {
	if !TxUpdate(t.mem(), (*ptoCtx)(c), t.txHead(c), key, true) {
		return false
	}
	c.OnCommit(t.onInsert)
	return true
}

// TxRemove deletes key, reporting false if absent, as part of a composed
// transaction.
func (t *PTOTable) TxRemove(c *txn.Ctx, key int64) bool {
	if !TxUpdate(t.mem(), (*ptoCtx)(c), t.txHead(c), key, false) {
		return false
	}
	c.OnCommit(t.onRemove)
	return true
}

// txHead reads the head into the footprint: a bucket frozen by a resize
// answers a lookup only while its generation is the head.
func (t *PTOTable) txHead(c *txn.Ctx) Gen { return Gen{pto: txn.Read(c, &t.head)} }

// ptoCtx is the TxMem of a composed operation: Read and Write join its
// footprint.
type ptoCtx txn.Ctx

func (x *ptoCtx) c() *txn.Ctx       { return (*txn.Ctx)(x) }
func (*ptoCtx) Size(g Gen) int      { return g.pto.size }
func (x *ptoCtx) Pred(g Gen) Gen    { return Gen{pto: txn.Read(x.c(), &g.pto.pred)} }
func (x *ptoCtx) Abort(int)         { x.c().Retry() }
func (x *ptoCtx) Speculative() bool { return x.c().Speculative() }

func (x *ptoCtx) Find(g Gen, i int, key int64) (Word, int, int, State) {
	return find(txn.Read(x.c(), &g.pto.buckets[i]), key)
}

func (x *ptoCtx) Lookup(g Gen, i int, key int64) (bool, State) {
	return lookup(txn.Read(x.c(), &g.pto.buckets[i]), key)
}

func (x *ptoCtx) Put(g Gen, i int, w Word, _, _ int, key int64, add bool) {
	txn.Write(x.c(), &g.pto.buckets[i], put(w, key, add))
}
