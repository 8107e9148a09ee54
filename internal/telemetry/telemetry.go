// Package telemetry is an allocation-free metrics subsystem for the
// speculation runtime (internal/speculate) and any future hot-path
// instrumentation.
//
// The unit of instrumentation is a Site: one named speculation call site
// (e.g. "bst/insert") holding a set of cumulative counters — attempts,
// commits, the abort-reason breakdown mirroring htm.Status, fallbacks,
// adaptive-disable events, skipped operations — plus a fixed-bucket latency
// histogram of the speculative phase. All updates are single atomic adds:
// nothing on the hot path allocates, takes a lock, or formats a string. A
// histogram keeps no count of its own: its snapshot derives Count as the
// sum of its buckets, so an observation costs one add fewer.
//
// Sites live in a Registry. Registration (Registry.Site) is the only
// locking operation and is expected at structure-construction time, not per
// operation; looking up an existing site takes only an RLock. A Registry can
// be snapshotted into plain values (Snapshot), two snapshots can be
// subtracted (Delta) to get a per-interval view, and a Registry can be
// rendered in Prometheus text exposition format (WritePrometheus / Handler).
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// NumBuckets is the number of latency histogram buckets. Bucket i counts
// observations in [2^(i+7), 2^(i+8)) nanoseconds — the first bucket is
// everything below 256ns, the last is everything at or above ~4.2ms.
const NumBuckets = 16

// bucketFloorNs is the upper bound (exclusive) of bucket 0 in nanoseconds.
const bucketFloorNs = 256

// BucketUpperBound returns the exclusive upper bound of bucket i in
// nanoseconds, or 0 for the last (unbounded) bucket.
func BucketUpperBound(i int) uint64 {
	if i >= NumBuckets-1 {
		return 0
	}
	return bucketFloorNs << uint(i)
}

// bucketFor maps a nanosecond observation to its bucket index.
func bucketFor(ns uint64) int {
	if ns < bucketFloorNs {
		return 0
	}
	b := bits.Len64(ns) - bits.Len64(bucketFloorNs) + 1
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// Histogram is a fixed-bucket latency histogram with power-of-two
// nanosecond buckets. The zero value is ready to use; all methods are safe
// for concurrent use and never allocate. An observation is two atomic adds,
// its bucket and the sum: the count is derived, the sum of the buckets.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64 // total nanoseconds observed
}

// Observe records one latency observation in nanoseconds.
func (h *Histogram) Observe(ns uint64) {
	h.counts[bucketFor(ns)].Add(1)
	h.sum.Add(ns)
}

// HistogramSnapshot is a plain-value copy of a Histogram.
type HistogramSnapshot struct {
	Buckets [NumBuckets]uint64 `json:"buckets"`
	SumNs   uint64             `json:"sum_ns"`
	Count   uint64             `json:"count"` // the sum of Buckets
}

// Snapshot copies the histogram's counters and derives Count from the
// buckets copied.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumNs = h.sum.Load()
	return s
}

// Delta returns the per-interval histogram s − prev.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{SumNs: s.SumNs - prev.SumNs, Count: s.Count - prev.Count}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	return d
}

// Site holds the speculation counters for one named call site. All fields
// are cumulative and updated with single atomic adds.
type Site struct {
	name string
	// level labels the speculation level this site represents ("fast",
	// "middle", "pto1", ...) when the registering driver splits one call
	// site into per-level sites; empty for aggregate sites. It is carried
	// into snapshots and emitted as a Prometheus label.
	level string

	// Attempts counts transaction attempts; Commits and the three abort
	// counters partition it by htm.Status.
	Attempts  atomic.Uint64
	Commits   atomic.Uint64
	Conflicts atomic.Uint64
	Capacity  atomic.Uint64
	Explicit  atomic.Uint64
	// Fallbacks counts operations completed by the nonblocking fallback.
	Fallbacks atomic.Uint64
	// Disables counts adaptive-disable events (a site's commit ratio fell
	// below the policy threshold and speculation was switched off).
	Disables atomic.Uint64
	// Skipped counts operations that bypassed speculation entirely because
	// the site was adaptively disabled.
	Skipped atomic.Uint64
	// Helped counts MultiCAS descriptors helped to decision between a
	// level's speculative attempts, outside any transaction — the middle
	// path's cooperative work: simtxn's level loop helps the descriptor an
	// aborted middle attempt tripped on, then retries. Only the helping
	// middle produces them; other levels report zero (they kill or defer
	// instead of helping).
	Helped atomic.Uint64

	// SpecNanos is the latency of the speculative phase: Begin to commit,
	// or Begin to the fallback decision.
	SpecNanos Histogram
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Level returns the site's level label, or "" for an aggregate site.
func (s *Site) Level() string { return s.level }

// SiteSnapshot is a plain-value copy of a Site's counters.
type SiteSnapshot struct {
	Name      string            `json:"site"`
	Level     string            `json:"level,omitempty"`
	Attempts  uint64            `json:"attempts"`
	Commits   uint64            `json:"commits"`
	Conflicts uint64            `json:"conflicts"`
	Capacity  uint64            `json:"capacity"`
	Explicit  uint64            `json:"explicit"`
	Fallbacks uint64            `json:"fallbacks"`
	Disables  uint64            `json:"adaptive_disables"`
	Skipped   uint64            `json:"skipped_ops"`
	Helped    uint64            `json:"helped_descs"`
	SpecNanos HistogramSnapshot `json:"spec_latency"`
	// FalseConflicts is always 0.
	// Kept only because benchmark/run.go:553 sums it.
	FalseConflicts uint64 `json:"-"`
}

// Snapshot copies the site's counters.
func (s *Site) Snapshot() SiteSnapshot {
	return SiteSnapshot{
		Name:      s.name,
		Level:     s.level,
		Attempts:  s.Attempts.Load(),
		Commits:   s.Commits.Load(),
		Conflicts: s.Conflicts.Load(),
		Capacity:  s.Capacity.Load(),
		Explicit:  s.Explicit.Load(),
		Fallbacks: s.Fallbacks.Load(),
		Disables:  s.Disables.Load(),
		Skipped:   s.Skipped.Load(),
		Helped:    s.Helped.Load(),
		SpecNanos: s.SpecNanos.Snapshot(),
	}
}

// Delta returns the per-interval counters s − prev. The two snapshots must
// be of the same site.
func (s SiteSnapshot) Delta(prev SiteSnapshot) SiteSnapshot {
	return SiteSnapshot{
		Name:      s.Name,
		Level:     s.Level,
		Attempts:  s.Attempts - prev.Attempts,
		Commits:   s.Commits - prev.Commits,
		Conflicts: s.Conflicts - prev.Conflicts,
		Capacity:  s.Capacity - prev.Capacity,
		Explicit:  s.Explicit - prev.Explicit,
		Fallbacks: s.Fallbacks - prev.Fallbacks,
		Disables:  s.Disables - prev.Disables,
		Skipped:   s.Skipped - prev.Skipped,
		Helped:    s.Helped - prev.Helped,
		SpecNanos: s.SpecNanos.Delta(prev.SpecNanos),
	}
}

// CommitRatio returns commits/attempts, or 1 when no attempt was made (an
// idle site is healthy, not broken).
func (s SiteSnapshot) CommitRatio() float64 {
	if s.Attempts == 0 {
		return 1
	}
	return float64(s.Commits) / float64(s.Attempts)
}

// Registry is a named collection of Sites, Composed sites and Open sites.
// Construct with NewRegistry.
type Registry struct {
	sites    class[Site]
	composed class[Composed]
	open     class[Open]
}

// class is one site class of a Registry: its sites by name, and in
// registration order for stable output.
type class[T any] struct {
	mu     sync.RWMutex
	byName map[string]*T
	order  []*T
}

// get returns the site registered under name, creating it with mk on first
// use. Looking up an existing site takes only the read lock.
func (c *class[T]) get(name string, mk func() *T) *T {
	c.mu.RLock()
	v := c.byName[name]
	c.mu.RUnlock()
	if v != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v = c.byName[name]; v != nil {
		return v
	}
	if c.byName == nil {
		c.byName = make(map[string]*T)
	}
	v = mk()
	c.byName[name] = v
	c.order = append(c.order, v)
	return v
}

// list returns the sites in registration order.
func (c *class[T]) list() []*T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*T, len(c.order))
	copy(out, c.order)
	return out
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Site returns the site registered under name, creating it on first use.
// Two structures registering the same name share counters (aggregation
// across instances is usually what a fleet-wide view wants).
func (r *Registry) Site(name string) *Site {
	return r.SiteAt(name, "")
}

// SiteAt is Site with a level label: drivers that split one call site into
// per-level sites ("bst/insert/pto1", "simtxn/atomic/middle") register each
// with its level name so exports can aggregate and filter by level. The
// label is fixed at first registration; later registrations under the same
// name share the existing site regardless of the level they pass.
func (r *Registry) SiteAt(name, level string) *Site {
	return r.sites.get(name, func() *Site { return &Site{name: name, level: level} })
}

// Sites returns the registered sites in registration order.
func (r *Registry) Sites() []*Site { return r.sites.list() }

// Snapshot is a plain-value copy of every site in a registry.
type Snapshot struct {
	Sites    []SiteSnapshot     `json:"sites"`
	Composed []ComposedSnapshot `json:"composed,omitempty"`
	Open     []OpenSnapshot     `json:"open,omitempty"`
}

// Snapshot copies every site's counters in registration order.
func (r *Registry) Snapshot() Snapshot {
	sites := r.Sites()
	out := Snapshot{Sites: make([]SiteSnapshot, 0, len(sites))}
	for _, s := range sites {
		out.Sites = append(out.Sites, s.Snapshot())
	}
	for _, c := range r.ComposedSites() {
		out.Composed = append(out.Composed, c.Snapshot())
	}
	for _, o := range r.OpenSites() {
		out.Open = append(out.Open, o.Snapshot())
	}
	return out
}

// Delta returns the per-interval view s − prev, matching sites by name.
// Sites absent from prev are returned as-is (they appeared during the
// interval).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	return Snapshot{
		Sites:    deltas(s.Sites, prev.Sites),
		Composed: deltas(s.Composed, prev.Composed),
		Open:     deltas(s.Open, prev.Open),
	}
}

// siteSnapshot is what deltas needs of a site class's snapshot.
type siteSnapshot[S any] interface {
	key() string
	Delta(prev S) S
}

func (s SiteSnapshot) key() string     { return s.Name }
func (s ComposedSnapshot) key() string { return s.Name }
func (s OpenSnapshot) key() string     { return s.Name }

// deltas returns cur − prev entry by entry, matching entries by name; an
// entry absent from prev is returned as-is.
func deltas[S siteSnapshot[S]](cur, prev []S) []S {
	old := make(map[string]S, len(prev))
	for _, p := range prev {
		old[p.key()] = p
	}
	out := make([]S, 0, len(cur))
	for _, c := range cur {
		if p, ok := old[c.key()]; ok {
			c = c.Delta(p)
		}
		out = append(out, c)
	}
	return out
}
