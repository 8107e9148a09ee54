package telemetry

import (
	"strings"
	"testing"
)

func TestWidthHistogramBuckets(t *testing.T) {
	var h WidthHistogram
	h.Observe(1)
	h.Observe(2)
	h.Observe(16)
	h.Observe(17)
	h.Observe(100) // overflow bucket
	h.Observe(0)   // clamped to 1
	s := h.Snapshot()
	if s.Buckets[0] != 2 { // widths 1 and clamped 0
		t.Fatalf("bucket[0] = %d, want 2", s.Buckets[0])
	}
	if s.Buckets[1] != 1 || s.Buckets[15] != 1 {
		t.Fatalf("exact buckets wrong: %+v", s.Buckets)
	}
	if s.Buckets[NumWidthBuckets-1] != 2 { // 17 and 100
		t.Fatalf("overflow bucket = %d, want 2", s.Buckets[NumWidthBuckets-1])
	}
	if s.Count != 6 || s.Sum != 1+2+16+17+100+1 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
}

func TestComposedSnapshotDeltaAndRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Composed("txn/move")
	if r.Composed("txn/move") != c {
		t.Fatal("same name must return the same composed site")
	}
	c.Ops.Add(10)
	c.FastCommits.Add(7)
	c.FallbackCommits.Add(3)
	c.MCASAttempts.Add(4)
	c.MCASFailures.Add(1)
	c.Width.Observe(5)
	prev := r.Snapshot()
	c.Ops.Add(5)
	c.FastCommits.Add(5)
	d := r.Snapshot().Delta(prev)
	if len(d.Composed) != 1 {
		t.Fatalf("composed sites in delta = %d, want 1", len(d.Composed))
	}
	cd := d.Composed[0]
	if cd.Ops != 5 || cd.FastCommits != 5 || cd.FallbackCommits != 0 {
		t.Fatalf("delta = %+v", cd)
	}
	full := r.Snapshot().Composed[0]
	if full.FastRatio() != 12.0/15.0 {
		t.Fatalf("fast ratio = %g", full.FastRatio())
	}
}

func TestPrometheusIncludesComposed(t *testing.T) {
	r := NewRegistry()
	c := r.Composed("txn/transfer")
	c.Ops.Add(3)
	c.FallbackCommits.Add(3)
	c.Width.Observe(4)
	c.Width.Observe(9)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`pto_composed_ops_total{site="txn/transfer"} 3`,
		`pto_composed_commits_total{site="txn/transfer",path="fallback"} 3`,
		`pto_composed_mcas_width_bucket{site="txn/transfer",le="4"} 1`,
		`pto_composed_mcas_width_bucket{site="txn/transfer",le="+Inf"} 2`,
		`pto_composed_mcas_width_sum{site="txn/transfer"} 13`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
