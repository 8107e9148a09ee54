// Package server is the network front-end over the transactional
// composition layer: it exposes a registry of PTO-accelerated structures as
// a key-value + priority-scheduling HTTP service, sharded so that every
// later hot-path win in the substrate shows up as user-visible throughput.
//
// The architecture is N independent shards. Each shard owns its own
// htm.Domain (its own commit clock), its own txn.Manager driven by its own
// speculate policy site, and its own registry of structures — so shards
// never share a commit clock, never validate each other's footprints, and
// scale like separate instances of the paper's machine.
// Cross-structure composed operations (move, transfer, moveall) therefore
// stay within one shard: the composition layer's atomicity is a
// single-domain property (MultiCAS panics on cross-domain entry sets), and
// the router keeps that invariant by construction — every composed
// operation resolves all its structures on one shard. Where a key lives is
// not part of the contract: a key routes to its owning shard, but a pinned
// request, a /v1/txn body (every keyed op on its first keyed op's shard)
// and movemin (a PQ value into its own shard's cold set) can leave it on
// another, and a pin is how a client reaches it there.
//
// A request is decoded, routed to its shard(s), and run to its commit on the
// goroutine net/http gave it: a single-key write is one txn.Atomic, a
// multi-key envelope one composed publication per owning shard, a /v1/txn
// body one open transaction. The server starts no goroutine and refuses no
// request for load: the MultiCAS fallback is the original nonblocking code
// and keeps its progress (the paper's Theorems 2–3), so an overloaded shard
// gets slower, never unavailable. What amortizes a commit over several keys
// is what the client says in one request — a key list or a /v1/txn body.
package server

import (
	"fmt"

	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/mound"
	"repro/internal/msqueue"
	"repro/internal/semtx"
	"repro/internal/skiplist"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// shard is one independently transactional slice of the service: its own
// domain, manager and structures.
type shard struct {
	id   int
	m    *txn.Manager
	sem  *semtx.Manager[*txn.Ctx, int64] // open multi-op transactions (/v1/txn)
	comp *telemetry.Composed             // the shard's composed-op counters ("shardN/txn")
	open *telemetry.Open                 // the shard's open-transaction counters (same name)
}

// siteName returns the telemetry site name of shard id. One registry serves
// the whole server; per-shard names keep the shards distinguishable on the
// /metrics export.
func siteName(id int) string { return fmt.Sprintf("shard%d/txn", id) }

// newShard builds shard id under cfg, registering its telemetry in reg.
func newShard(id int, cfg Config, reg *telemetry.Registry) *shard {
	d := htm.NewDomain(0, 0)
	if cfg.ReadCap != 0 || cfg.WriteCap != 0 {
		// Negative values pass through: they force every composed operation
		// down the MultiCAS fallback (htm.Domain.SetCapacity).
		d.SetCapacity(cfg.ReadCap, cfg.WriteCap)
	}
	pol := cfg.Policy.WithMetrics(reg)
	m := txn.NewIn(d, cfg.Attempts).WithPolicyAt(pol, siteName(id))
	r := m.Structures()
	r.AddSet(DefaultSet, hashtable.NewPTOTableIn(d, 64, 0))
	r.AddSet(DefaultSpill, skiplist.NewPTOSetIn(d, 0))
	r.AddQueue(DefaultQueue, msqueue.NewPTOIn(d, 0))
	r.AddQueue("egress", msqueue.NewPTOIn(d, 0))
	r.AddPQ(DefaultPQ, mound.NewPTOIn(d, 12, 0))
	open := reg.Open(siteName(id))
	return &shard{
		id:   id,
		m:    m,
		sem:  semtx.New(m, r).WithTelemetry(open),
		comp: reg.Composed(siteName(id)),
		open: open,
	}
}

// set/queue/pq resolve a structure name on this shard, "" selecting the
// op's default. A nil return means the name is unknown (the handler's 404).
func (s *shard) set(name, def string) txn.Set {
	if name == "" {
		name = def
	}
	return s.m.Structures().Set(name)
}

func (s *shard) queue(name, def string) txn.Queue {
	if name == "" {
		name = def
	}
	return s.m.Structures().Queue(name)
}

func (s *shard) pq(name, def string) txn.PQ {
	if name == "" {
		name = def
	}
	return s.m.Structures().PQ(name)
}

// The per-op executors. Each is one composed operation on this shard's
// manager; the multi-key forms run the whole batch in a single atomic body
// — one prefix transaction or one MultiCAS publication for the lot.

func (s *shard) get(set txn.Set, key int64) bool {
	var found bool
	s.m.ReadOnly(func(c *txn.Ctx) { found = set.TxContains(c, key) })
	return found
}

func (s *shard) put(set txn.Set, key int64) bool {
	var changed bool
	s.m.Atomic(func(c *txn.Ctx) { changed = set.TxInsert(c, key) })
	return changed
}

func (s *shard) del(set txn.Set, key int64) bool {
	var changed bool
	s.m.Atomic(func(c *txn.Ctx) { changed = set.TxRemove(c, key) })
	return changed
}

// putAll inserts every key in one composed publication, returning how many
// were newly inserted.
func (s *shard) putAll(set txn.Set, keys []int64) int {
	var n int
	s.m.Atomic(func(c *txn.Ctx) {
		n = 0
		for _, k := range keys {
			if set.TxInsert(c, k) {
				n++
			}
		}
	})
	return n
}

func (s *shard) enqueue(q txn.Queue, v int64) {
	s.m.Atomic(func(c *txn.Ctx) { q.TxEnqueue(c, v) })
}

func (s *shard) dequeue(q txn.Queue) (int64, bool) {
	var v int64
	var ok bool
	s.m.Atomic(func(c *txn.Ctx) { v, ok = q.TxDequeue(c) })
	return v, ok
}

func (s *shard) push(pq txn.PQ, v int64) {
	s.m.Atomic(func(c *txn.Ctx) { pq.TxPush(c, v) })
}

func (s *shard) popMin(pq txn.PQ) (int64, bool) {
	var v int64
	var ok bool
	s.m.Atomic(func(c *txn.Ctx) { v, ok = pq.TxPopMin(c) })
	return v, ok
}

func (s *shard) composedSnapshot() telemetry.ComposedSnapshot { return s.comp.Snapshot() }
