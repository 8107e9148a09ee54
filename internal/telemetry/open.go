package telemetry

import "sync/atomic"

// Open-transaction telemetry: the site class for the open multi-op
// transaction layer (internal/semtx). An Open records how user-written
// transaction bodies complete — committed, re-run because a *semantic* item
// failed commit-time validation (a key's presence, a queue's front, a PQ's
// min moved under the body), or abandoned because the body returned an
// error — plus the per-body operation-count distribution. Word-level
// attempt/abort breakdowns for the underlying commit step come from the
// speculate.Site and Composed the enclosing txn manager registers (same
// name); Open holds what those two cannot express: the semantic layer above
// them.

// Open holds the counters for one named open-transaction site. All fields
// are cumulative and updated with single atomic adds.
type Open struct {
	name string

	// Txns counts committed open transactions.
	Txns atomic.Uint64

	// SemRetries counts body re-runs forced by semantic validation: every
	// recorded item was revalidated inside the commit step and at least one
	// had changed (reason "conflict_semantic"). Word-level conflicts below
	// the semantic layer are counted by the enclosing composed/speculation
	// sites, not here.
	SemRetries atomic.Uint64

	// UserAborts counts bodies abandoned because they returned an error; no
	// buffered write was published.
	UserAborts atomic.Uint64

	// OpsPerTxn is the distribution of structure operations per committed
	// body.
	OpsPerTxn WidthHistogram
}

// Name returns the open site's registered name.
func (o *Open) Name() string { return o.name }

// OpenSnapshot is a plain-value copy of an Open's counters.
type OpenSnapshot struct {
	Name       string                 `json:"site"`
	Txns       uint64                 `json:"txns"`
	SemRetries uint64                 `json:"sem_retries"`
	UserAborts uint64                 `json:"user_aborts"`
	OpsPerTxn  WidthHistogramSnapshot `json:"ops_per_txn"`
}

// Snapshot copies the open site's counters.
func (o *Open) Snapshot() OpenSnapshot {
	return OpenSnapshot{
		Name:       o.name,
		Txns:       o.Txns.Load(),
		SemRetries: o.SemRetries.Load(),
		UserAborts: o.UserAborts.Load(),
		OpsPerTxn:  o.OpsPerTxn.Snapshot(),
	}
}

// Delta returns the per-interval counters s − prev. The two snapshots must
// be of the same open site.
func (s OpenSnapshot) Delta(prev OpenSnapshot) OpenSnapshot {
	return OpenSnapshot{
		Name:       s.Name,
		Txns:       s.Txns - prev.Txns,
		SemRetries: s.SemRetries - prev.SemRetries,
		UserAborts: s.UserAborts - prev.UserAborts,
		OpsPerTxn:  s.OpsPerTxn.Delta(prev.OpsPerTxn),
	}
}

// Open returns the open-transaction site registered under name, creating it
// on first use. Like Site, equal names share counters.
func (r *Registry) Open(name string) *Open {
	return r.open.get(name, func() *Open { return &Open{name: name} })
}

// OpenSites returns the registered open sites in registration order.
func (r *Registry) OpenSites() []*Open { return r.open.list() }
