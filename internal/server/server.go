package server

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/tune"
)

// Defaults for Config's zero values.
const (
	DefaultShards   = 4
	DefaultMaxBatch = 64
)

// Config parameterizes a Server. The zero value is a working 4-shard
// server with the substrate defaults.
type Config struct {
	// Shards is the shard count; keys spread across shards by hash, and
	// each shard owns its own htm domain, manager, and structures.
	Shards int
	// Policy is ignored: every shard speculates under speculate.Fixed(0).
	// Kept only because benchmark/serve.go:52 sets it.
	Policy speculate.Policy
	// ReadCap/WriteCap retune every shard domain's transactional capacity;
	// 0 keeps the defaults, negative forces the MultiCAS fallback.
	ReadCap, WriteCap int

	// MaxBatch caps one publication's op count at the wire: a request's key
	// list, a transfer's n and a /v1/txn body's ops (400 past it).
	MaxBatch int

	// AdmitInterval is ignored: there is no admission evaluator.
	// Kept only because benchmark/serve.go:54 sets it on the forced-fallback server.
	AdmitInterval time.Duration
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// Server is the sharded front-end: N shards behind one router. It owns no
// goroutine: every request runs to its commit on the goroutine net/http
// gave it, so stopping the HTTP listener (http.Server.Shutdown) is the whole
// of a graceful shutdown. Construct with New, serve Handler.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	shards []*shard
	rr     atomic.Uint64 // rotates keyless ops across shards
}

// New builds a server; the HTTP listener is the caller's.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, reg: telemetry.NewRegistry()}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(i, cfg, s.reg))
	}
	return s
}

// Registry returns the telemetry registry every shard records into.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Close does nothing: a Server has no background work to stop.
// Kept only because benchmark/serve.go:260 and :332 call it.
func (s *Server) Close() {}

// shardFor routes a key to its owning shard (Fibonacci hash: adjacent keys
// spread apart).
func (s *Server) shardFor(key int64) *shard {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return s.shards[(h>>32)%uint64(len(s.shards))]
}

// nextShard rotates keyless ops (dequeue, popmin, transfer) across shards.
func (s *Server) nextShard() *shard {
	return s.shards[s.rr.Add(1)%uint64(len(s.shards))]
}

// ShardStats is one shard's externally visible state: its commit pipeline's
// and its open transactions' counters.
type ShardStats struct {
	Shard int `json:"shard"`

	// Publications counts completed composed operations — each one prefix
	// transaction or one MultiCAS, however many keys it carried.
	Publications    uint64 `json:"publications"`
	FastCommits     uint64 `json:"fast_commits"`
	FallbackCommits uint64 `json:"fallback_commits"`

	// Sheds is always zero: no request is refused for load.
	// Kept only because benchmark/run.go:635 subtracts it.
	Sheds uint64 `json:"sheds"`
	// Batches is always zero: a single-key write is its own publication.
	// Kept only because benchmark/run.go:633 subtracts it.
	Batches uint64 `json:"batches"`
	// BatchedOps is always zero.
	// Kept only because benchmark/run.go:634 subtracts it.
	BatchedOps uint64 `json:"batched_ops"`

	// Tune is always zero.
	// Kept only because benchmark/run.go:636 subtracts its counters.
	Tune tune.Snapshot `json:"tune"`

	// Open-transaction counters (/v1/txn): committed transactions, commits
	// retried after a semantic validation mismatch, and bodies that aborted
	// (assert mismatches and restriction violations).
	OpenTxns       uint64 `json:"open_txns"`
	OpenRetries    uint64 `json:"open_retries"`
	OpenUserAborts uint64 `json:"open_user_aborts"`
}

// Stats is the /statz payload: per-shard detail plus the totals the
// benchmark deltas between phases (benchmark/run.go).
type Stats struct {
	// Structures lists the structure names every shard's registry holds, in
	// sorted order — deterministic output however the registry iterates.
	Structures   []string     `json:"structures"`
	Shards       []ShardStats `json:"shards"`
	Publications uint64       `json:"total_publications"`
	OpenTxns     uint64       `json:"total_open_txns"`
}

// Stats snapshots every shard.
func (s *Server) Stats() Stats {
	var out Stats
	r := s.shards[0].m.Structures()
	out.Structures = append(out.Structures, r.SetNames()...)
	out.Structures = append(out.Structures, r.QueueNames()...)
	out.Structures = append(out.Structures, r.PQNames()...)
	sort.Strings(out.Structures)
	for _, sh := range s.shards {
		comp := sh.composedSnapshot()
		open := sh.open.Snapshot()
		st := ShardStats{
			Shard:           sh.id,
			Publications:    comp.Ops,
			FastCommits:     comp.FastCommits,
			FallbackCommits: comp.FallbackCommits,
			OpenTxns:        open.Txns,
			OpenRetries:     open.SemRetries,
			OpenUserAborts:  open.UserAborts,
		}
		out.Shards = append(out.Shards, st)
		out.Publications += st.Publications
		out.OpenTxns += st.OpenTxns
	}
	return out
}
