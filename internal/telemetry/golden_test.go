package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// goldenRegistry fills a registry with every site class — aggregate and
// per-level speculation sites, an idle site, a composed site and an open
// site — registered out of name order, so both the registration-order
// outputs (Snapshot, Delta, sampler lines) and the name-ordered exposition
// are exercised. It returns the registry and a snapshot taken midway, after
// which every class gains counts and one new site of each class appears.
func goldenRegistry() (*Registry, Snapshot) {
	r := NewRegistry()
	ins := r.Site("skiplist/insert")
	ins.Attempts.Add(40)
	ins.Commits.Add(31)
	ins.Conflicts.Add(5)
	ins.Capacity.Add(3)
	ins.Explicit.Add(1)
	ins.Fallbacks.Add(9)
	ins.Disables.Add(1)
	ins.Skipped.Add(7)
	ins.SpecNanos.Observe(100)
	ins.SpecNanos.Observe(300)
	ins.SpecNanos.Observe(70000)
	fast := r.SiteAt("txn/atomic/fast", "fast")
	fast.Attempts.Add(12)
	fast.Commits.Add(10)
	fast.Capacity.Add(2)
	fast.Helped.Add(3)
	fast.SpecNanos.Observe(1 << 30)
	r.Site("idle")
	c := r.Composed("txn/atomic")
	c.Ops.Add(11)
	c.FastCommits.Add(8)
	c.FallbackCommits.Add(2)
	c.ReadOnlyCommits.Add(1)
	c.MCASAttempts.Add(3)
	c.MCASFailures.Add(1)
	c.Restarts.Add(4)
	c.Width.Observe(2)
	c.Width.Observe(2)
	c.Width.Observe(40)
	o := r.Open("semtx")
	o.Txns.Add(6)
	o.SemRetries.Add(2)
	o.UserAborts.Add(1)
	o.OpsPerTxn.Observe(1)
	o.OpsPerTxn.Observe(6)
	mid := r.Snapshot()

	ins.Attempts.Add(8)
	ins.Commits.Add(8)
	ins.SpecNanos.Observe(600)
	fast.Conflicts.Add(1)
	fast.Attempts.Add(1)
	c.Ops.Add(2)
	c.FallbackCommits.Add(2)
	c.MCASAttempts.Add(2)
	c.Width.Observe(5)
	o.Txns.Add(1)
	o.OpsPerTxn.Observe(3)
	rm := r.SiteAt("bst/remove/pto1", "pto1")
	rm.Attempts.Add(2)
	rm.Commits.Add(2)
	r.Composed("shard1/txn").Ops.Add(1)
	r.Open("shard1/open").UserAborts.Add(1)
	return r, mid
}

// goldenTelemetry renders the three outputs a scraper, an expvar reader or
// a log reader sees: the Prometheus text, the Snapshot and Delta JSON, and
// the sampler's lines for the delta over a two-second interval.
func goldenTelemetry() string {
	r, mid := goldenRegistry()
	var b strings.Builder
	b.WriteString("== prometheus\n")
	r.WritePrometheus(&b)
	snap := r.Snapshot()
	for _, part := range []struct {
		name string
		v    Snapshot
	}{{"snapshot", snap}, {"delta", snap.Delta(mid)}} {
		js, err := json.MarshalIndent(part.v, "", "  ")
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "== %s\n%s\n", part.name, js)
	}
	b.WriteString("== sampler\n")
	logDelta(snap.Delta(mid), 2*time.Second, func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
	})
	return b.String()
}

// TestGoldenExposition pins the exposition byte for byte against
// testdata/exposition.golden: metric names, label sets and their order,
// JSON tags, registration order and the sampler's line format are what
// dashboards, the frozen benchmark and log readers parse.
func TestGoldenExposition(t *testing.T) {
	const path = "testdata/exposition.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenTelemetry()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("exposition differs from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("exposition differs from %s: %d lines, want %d", path, len(gl), len(wl))
}
