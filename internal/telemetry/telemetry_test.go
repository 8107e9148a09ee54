package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {255, 0}, // below the floor
		{256, 1}, {511, 1},
		{512, 2}, {1023, 2},
		{1024, 3},
		{255 << 10, 10}, // 261120ns is still within bucket 10's [2^17, 2^18)
		{1 << 30, NumBuckets - 1},
		{^uint64(0), NumBuckets - 1}, // saturates in the last bucket
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every bucket's contents must be below its upper bound and at or above
	// the previous bound.
	var h Histogram
	for i := 0; i < NumBuckets-1; i++ {
		ub := BucketUpperBound(i)
		h.Observe(ub - 1)
		h.Observe(ub) // first value of the next bucket
	}
	s := h.Snapshot()
	if s.Buckets[0] != 1 {
		t.Errorf("bucket 0 = %d, want 1", s.Buckets[0])
	}
	for i := 1; i < NumBuckets-1; i++ {
		if s.Buckets[i] != 2 {
			t.Errorf("bucket %d = %d, want 2 (boundary straddle)", i, s.Buckets[i])
		}
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Errorf("last bucket = %d, want 1", s.Buckets[NumBuckets-1])
	}
	if s.Count != 2*(NumBuckets-1) {
		t.Errorf("count = %d, want %d", s.Count, 2*(NumBuckets-1))
	}
}

func TestSnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	a := r.Site("a")
	a.Attempts.Add(10)
	a.Commits.Add(7)
	a.Conflicts.Add(2)
	a.Capacity.Add(1)
	a.Fallbacks.Add(3)
	a.SpecNanos.Observe(100)

	s1 := r.Snapshot()
	if len(s1.Sites) != 1 || s1.Sites[0].Name != "a" {
		t.Fatalf("snapshot shape: %+v", s1)
	}
	if got := s1.Sites[0]; got.Attempts != 10 || got.Commits != 7 ||
		got.Conflicts != 2 || got.Capacity != 1 || got.Fallbacks != 3 {
		t.Fatalf("snapshot values: %+v", got)
	}
	if r := s1.Sites[0].CommitRatio(); r != 0.7 {
		t.Fatalf("commit ratio = %v, want 0.7", r)
	}

	// More traffic, plus a site that appears mid-interval.
	a.Attempts.Add(5)
	a.Commits.Add(5)
	a.SpecNanos.Observe(300)
	b := r.Site("b")
	b.Attempts.Add(1)
	b.Explicit.Add(1)
	b.Disables.Add(1)
	b.Skipped.Add(4)

	s2 := r.Snapshot()
	d := s2.Delta(s1)
	if len(d.Sites) != 2 {
		t.Fatalf("delta shape: %+v", d)
	}
	da := d.Sites[0]
	if da.Attempts != 5 || da.Commits != 5 || da.Conflicts != 0 || da.Fallbacks != 0 {
		t.Fatalf("delta a: %+v", da)
	}
	if da.SpecNanos.Count != 1 || da.SpecNanos.SumNs != 300 {
		t.Fatalf("delta a histogram: %+v", da.SpecNanos)
	}
	db := d.Sites[1]
	if db.Attempts != 1 || db.Explicit != 1 || db.Disables != 1 || db.Skipped != 4 {
		t.Fatalf("delta b (new site passes through): %+v", db)
	}
	if db.CommitRatio() != 0 {
		t.Fatalf("b commit ratio = %v, want 0", db.CommitRatio())
	}
	// An idle site reads as healthy.
	if (SiteSnapshot{}).CommitRatio() != 1 {
		t.Fatal("idle site must report ratio 1")
	}
}

func TestSiteGetOrCreateConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	sites := make([]*Site, 16)
	for i := range sites {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sites[i] = r.Site("shared")
			sites[i].Attempts.Add(1)
		}(i)
	}
	wg.Wait()
	for _, s := range sites {
		if s != sites[0] {
			t.Fatal("concurrent Site() returned distinct sites for one name")
		}
	}
	if got := r.Site("shared").Attempts.Load(); got != 16 {
		t.Fatalf("attempts = %d, want 16", got)
	}
	if len(r.Sites()) != 1 {
		t.Fatalf("registry has %d sites, want 1", len(r.Sites()))
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	s := r.Site("bst/insert")
	s.Attempts.Add(4)
	s.Commits.Add(2)
	s.Conflicts.Add(1)
	s.Capacity.Add(1)
	s.Fallbacks.Add(1)
	s.Disables.Add(1)
	s.SpecNanos.Observe(300) // bucket 1: [256, 512)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	body := sb.String()

	for _, want := range []string{
		`pto_speculation_attempts_total{site="bst/insert"} 4`,
		`pto_speculation_commits_total{site="bst/insert"} 2`,
		`pto_speculation_aborts_total{site="bst/insert",reason="conflict"} 1`,
		`pto_speculation_aborts_total{site="bst/insert",reason="capacity"} 1`,
		`pto_speculation_aborts_total{site="bst/insert",reason="explicit"} 0`,
		`pto_speculation_fallbacks_total{site="bst/insert"} 1`,
		`pto_speculation_adaptive_disables_total{site="bst/insert"} 1`,
		`pto_speculation_latency_seconds_bucket{site="bst/insert",le="+Inf"} 1`,
		`pto_speculation_latency_seconds_count{site="bst/insert"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	// Cumulative buckets: the 256ns bound excludes the 300ns observation,
	// the 512ns bound includes it.
	if !strings.Contains(body, `le="2.56e-07"} 0`) {
		t.Errorf("300ns observation leaked into the 256ns bucket\n%s", body)
	}
	if !strings.Contains(body, `le="5.12e-07"} 1`) {
		t.Errorf("300ns observation missing from the 512ns cumulative bucket\n%s", body)
	}
}

// expvarRuns numbers TestPublishExpvar's runs: expvar names live for the
// process, so each run under -count publishes under a fresh one.
var expvarRuns atomic.Int32

func TestPublishExpvar(t *testing.T) {
	name := fmt.Sprintf("telemetry_test_registry_%d", expvarRuns.Add(1))
	r := NewRegistry()
	r.Site("x").Commits.Add(3)
	r.PublishExpvar(name)
	r.PublishExpvar(name) // idempotent, must not panic
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("registry not published")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar output not JSON: %v", err)
	}
	if len(snap.Sites) != 1 || snap.Sites[0].Name != "x" || snap.Sites[0].Commits != 3 {
		t.Fatalf("expvar snapshot: %+v", snap)
	}
}
