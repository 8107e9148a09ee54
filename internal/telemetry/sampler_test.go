package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSamplerFinalFlushOnStop: activity accumulated after the last tick is
// not dropped — Stop flushes one final partial-interval delta, one line per
// active site of every class. The interval is an hour, so the only lines the
// sampler can ever emit here are the stop flush's.
func TestSamplerFinalFlushOnStop(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var lines []string
	s := StartSampler(r, time.Hour, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	site := r.Site("drain/test")
	site.Attempts.Add(10)
	site.Commits.Add(9)
	open := r.Open("drain/txn")
	open.Txns.Add(4)
	open.SemRetries.Add(2)
	open.OpsPerTxn.Observe(6)
	open.OpsPerTxn.Observe(2)
	r.Open("idle/txn")
	s.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("got %d sampler lines, want exactly the final flush's two: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "drain/test") {
		t.Fatalf("final flush %q does not report the active site", lines[0])
	}
	if !strings.Contains(lines[1], "drain/txn") || !strings.Contains(lines[1], "mean-ops 4.0") {
		t.Fatalf("final flush %q does not report the active open site", lines[1])
	}
	// Stop is idempotent and must not flush twice.
	s.Stop()
	if len(lines) != 2 {
		t.Fatalf("second Stop emitted another flush: %q", lines)
	}
}
