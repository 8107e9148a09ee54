package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/tune"
)

// Defaults for Config's zero values.
const (
	DefaultShards     = 4
	DefaultEpoch      = 500 * time.Microsecond
	DefaultMaxBatch   = 64
	DefaultAdmitFloor = 0.2 // mirrors speculate.DefaultMinCommitRatio
	DefaultAdmitMin   = 32
	DefaultAdmitEvery = 100 * time.Millisecond
)

// Config parameterizes a Server. The zero value is a working 4-shard
// server with the substrate defaults.
type Config struct {
	// Shards is the shard count; keys spread across shards by hash, and
	// each shard owns its own htm domain, manager, and structures.
	Shards int
	// Policy is the speculation policy of every shard's manager (e.g.
	// speculate.Adaptive()); its Metrics field is overwritten with the
	// server's registry.
	Policy speculate.Policy
	// Attempts is the composed fast-path budget (0 = txn.DefaultAttempts).
	Attempts int
	// ReadCap/WriteCap retune every shard domain's transactional capacity;
	// 0 keeps the defaults, negative forces the MultiCAS fallback.
	ReadCap, WriteCap int

	// Epoch is the batcher's commit window; MaxBatch caps one publication's
	// op count: the batcher's chunk, and at the wire a request's key list, a
	// transfer's n and a /v1/txn body's ops (400 past it).
	Epoch    time.Duration
	MaxBatch int

	// AdmitFloor is the live commit ratio below which a shard sheds
	// mutating requests; AdmitMinAttempts is the evidence threshold (an
	// interval with fewer attempts never sheds); AdmitInterval is the
	// evaluation period. AdmitInterval < 0 disables the background
	// evaluator (tests drive it directly).
	AdmitFloor       float64
	AdmitMinAttempts int
	AdmitInterval    time.Duration

	// Registry receives every shard's telemetry (nil: a fresh registry).
	// Expose it with telemetry's existing expvar/Prometheus exporters.
	Registry *telemetry.Registry

	// batchTick, when non-nil, replaces every shard batcher's wall-clock
	// epoch ticker — the deterministic tests' fake clock.
	batchTick <-chan time.Time
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.Epoch <= 0 {
		c.Epoch = DefaultEpoch
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.AdmitFloor <= 0 {
		c.AdmitFloor = DefaultAdmitFloor
	}
	if c.AdmitMinAttempts <= 0 {
		c.AdmitMinAttempts = DefaultAdmitMin
	}
	if c.AdmitInterval == 0 {
		c.AdmitInterval = DefaultAdmitEvery
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	return c
}

// Server is the sharded front-end: N shards, their batchers, and the
// admission controller. Construct with New, serve Handler, stop with
// Close.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	shards []*shard
	adm    *admission
	rr     atomic.Uint64 // rotates keyless ops across shards
	once   sync.Once
}

// New builds and starts a server (batcher goroutines and the admission
// evaluator begin immediately; the HTTP listener is the caller's).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, reg: cfg.Registry}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg, s.reg)
		sh.b = newBatcher(sh, cfg.Epoch, cfg.MaxBatch, cfg.batchTick)
		s.shards = append(s.shards, sh)
	}
	s.adm = newAdmission(s.shards, cfg.AdmitFloor, cfg.AdmitMinAttempts, cfg.AdmitInterval)
	return s
}

// Registry returns the telemetry registry every shard records into.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Close drains and stops the server's background work: every batcher
// flushes its pending epoch (no submitted op is dropped) and the admission
// evaluator halts. Stop the HTTP listener before calling Close so no new
// request can race the drain. Safe to call more than once.
func (s *Server) Close() {
	s.once.Do(func() {
		for _, sh := range s.shards {
			sh.b.close()
		}
		s.adm.close()
	})
}

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

// ShardStats is one shard's externally visible state: admission, commit
// pipeline, and batcher counters.
type ShardStats struct {
	Shard       int     `json:"shard"`
	Shedding    bool    `json:"shedding"`
	Sheds       uint64  `json:"sheds"`
	CommitRatio float64 `json:"commit_ratio"`

	// Publications counts completed composed operations — each one prefix
	// transaction or one MultiCAS, however many keys it carried.
	Publications    uint64 `json:"publications"`
	FastCommits     uint64 `json:"fast_commits"`
	FallbackCommits uint64 `json:"fallback_commits"`

	Batches    uint64                           `json:"batches"`
	BatchedOps uint64                           `json:"batched_ops"`
	BatchSizes telemetry.WidthHistogramSnapshot `json:"batch_sizes"`

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

// Stats is the /statz payload: per-shard detail plus the totals the load
// generator deltas between phases.
type Stats struct {
	// Structures lists the structure names every shard's registry holds, in
	// sorted order — deterministic output however the registry iterates.
	Structures   []string     `json:"structures"`
	Shards       []ShardStats `json:"shards"`
	Sheds        uint64       `json:"total_sheds"`
	Publications uint64       `json:"total_publications"`
	Batches      uint64       `json:"total_batches"`
	BatchedOps   uint64       `json:"total_batched_ops"`
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
			Shedding:        sh.shedding.Load(),
			Sheds:           sh.sheds.Load(),
			CommitRatio:     sh.lastRatio(),
			Publications:    comp.Ops,
			FastCommits:     comp.FastCommits,
			FallbackCommits: comp.FallbackCommits,
			Batches:         sh.b.batches.Load(),
			BatchedOps:      sh.b.batchedOps.Load(),
			BatchSizes:      sh.b.sizes.Snapshot(),
			OpenTxns:        open.Txns,
			OpenRetries:     open.SemRetries,
			OpenUserAborts:  open.UserAborts,
		}
		out.Shards = append(out.Shards, st)
		out.Sheds += st.Sheds
		out.Publications += st.Publications
		out.Batches += st.Batches
		out.BatchedOps += st.BatchedOps
		out.OpenTxns += st.OpenTxns
	}
	return out
}
