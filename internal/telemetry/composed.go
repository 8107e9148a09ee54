package telemetry

import "sync/atomic"

// Composed-operation telemetry: the site class for the transactional
// composition layer (internal/txn). A Composed records how multi-structure
// transactions complete — inside one HTM prefix transaction (fast path),
// through an N-word MultiCAS publication (fallback), or as a validated
// read-only snapshot — plus the MCAS width distribution, which is the
// fallback's conflict footprint and helping cost. Attempt/abort-by-reason
// breakdowns for the fast path come from the speculate.Site the composition
// manager registers alongside (same name); Composed holds what a plain
// speculation site cannot express.

// NumWidthBuckets is the number of MCAS width buckets: widths 1..16 are
// exact, the last bucket collects 17 and wider.
const NumWidthBuckets = 17

// WidthBucketBound returns the width counted by bucket i, or 0 for the last
// (unbounded) bucket.
func WidthBucketBound(i int) int {
	if i >= NumWidthBuckets-1 {
		return 0
	}
	return i + 1
}

// WidthHistogram is a fixed-bucket histogram of small integer widths (MCAS
// entry counts). The zero value is ready to use; all methods are safe for
// concurrent use and never allocate. Like Histogram it keeps no count: the
// snapshot derives it from the buckets.
type WidthHistogram struct {
	counts [NumWidthBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one width observation.
func (h *WidthHistogram) Observe(width int) {
	if width < 1 {
		width = 1
	}
	b := width - 1
	if b >= NumWidthBuckets {
		b = NumWidthBuckets - 1
	}
	h.counts[b].Add(1)
	h.sum.Add(uint64(width))
}

// WidthHistogramSnapshot is a plain-value copy of a WidthHistogram.
type WidthHistogramSnapshot struct {
	Buckets [NumWidthBuckets]uint64 `json:"buckets"`
	Sum     uint64                  `json:"sum"`
	Count   uint64                  `json:"count"` // the sum of Buckets
}

// Snapshot copies the histogram's counters and derives Count from the
// buckets copied.
func (h *WidthHistogram) Snapshot() WidthHistogramSnapshot {
	var s WidthHistogramSnapshot
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// Delta returns the per-interval histogram s − prev.
func (s WidthHistogramSnapshot) Delta(prev WidthHistogramSnapshot) WidthHistogramSnapshot {
	d := WidthHistogramSnapshot{Sum: s.Sum - prev.Sum, Count: s.Count - prev.Count}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	return d
}

// Composed holds the counters for one named composed-operation site. All
// fields are cumulative and updated with single atomic adds.
type Composed struct {
	name string

	// Ops counts completed composed operations; FastCommits,
	// FallbackCommits, and ReadOnlyCommits partition it by completion path.
	Ops             atomic.Uint64
	FastCommits     atomic.Uint64
	FallbackCommits atomic.Uint64
	ReadOnlyCommits atomic.Uint64

	// MCASAttempts counts fallback publication attempts; MCASFailures the
	// ones whose validated footprint moved before the MultiCAS decided.
	MCASAttempts atomic.Uint64
	MCASFailures atomic.Uint64

	// Restarts counts capture re-runs: the fallback body observed a state it
	// had to help resolve (or a stale view) and started over.
	Restarts atomic.Uint64

	// Width is the MCAS entry-count distribution of fallback publications.
	Width WidthHistogram
}

// Name returns the composed site's registered name.
func (c *Composed) Name() string { return c.name }

// ComposedSnapshot is a plain-value copy of a Composed's counters.
type ComposedSnapshot struct {
	Name            string                 `json:"site"`
	Ops             uint64                 `json:"ops"`
	FastCommits     uint64                 `json:"fast_commits"`
	FallbackCommits uint64                 `json:"fallback_commits"`
	ReadOnlyCommits uint64                 `json:"readonly_commits"`
	MCASAttempts    uint64                 `json:"mcas_attempts"`
	MCASFailures    uint64                 `json:"mcas_failures"`
	Restarts        uint64                 `json:"restarts"`
	Width           WidthHistogramSnapshot `json:"mcas_width"`
}

// Snapshot copies the composed site's counters.
func (c *Composed) Snapshot() ComposedSnapshot {
	return ComposedSnapshot{
		Name:            c.name,
		Ops:             c.Ops.Load(),
		FastCommits:     c.FastCommits.Load(),
		FallbackCommits: c.FallbackCommits.Load(),
		ReadOnlyCommits: c.ReadOnlyCommits.Load(),
		MCASAttempts:    c.MCASAttempts.Load(),
		MCASFailures:    c.MCASFailures.Load(),
		Restarts:        c.Restarts.Load(),
		Width:           c.Width.Snapshot(),
	}
}

// Delta returns the per-interval counters s − prev. The two snapshots must
// be of the same composed site.
func (s ComposedSnapshot) Delta(prev ComposedSnapshot) ComposedSnapshot {
	return ComposedSnapshot{
		Name:            s.Name,
		Ops:             s.Ops - prev.Ops,
		FastCommits:     s.FastCommits - prev.FastCommits,
		FallbackCommits: s.FallbackCommits - prev.FallbackCommits,
		ReadOnlyCommits: s.ReadOnlyCommits - prev.ReadOnlyCommits,
		MCASAttempts:    s.MCASAttempts - prev.MCASAttempts,
		MCASFailures:    s.MCASFailures - prev.MCASFailures,
		Restarts:        s.Restarts - prev.Restarts,
		Width:           s.Width.Delta(prev.Width),
	}
}

// FastRatio returns fast-path commits over completed ops, or 1 when idle.
func (s ComposedSnapshot) FastRatio() float64 {
	if s.Ops == 0 {
		return 1
	}
	return float64(s.FastCommits) / float64(s.Ops)
}

// Composed returns the composed-operation site registered under name,
// creating it on first use. Like Site, equal names share counters.
func (r *Registry) Composed(name string) *Composed {
	return r.composed.get(name, func() *Composed { return &Composed{name: name} })
}

// ComposedSites returns the registered composed sites in registration order.
func (r *Registry) ComposedSites() []*Composed { return r.composed.list() }
