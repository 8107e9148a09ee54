package telemetry

import (
	"log"
	"sync"
	"time"
)

// Sampler is a background goroutine that turns the registry's cumulative
// counters into an interval-rate time series: every interval it takes a
// Snapshot, Deltas it against the previous one, and logs one line per active
// site: a speculation site's commit ratio, abort and fallback rates, a
// composed site's operation and fallback rates, an open site's transaction,
// retry and abandon rates.
// This is the long-run companion of a cumulative /metrics scrape (ptoserver
// -sample): cumulative counters hide phase changes (a site that degrades
// after ten minutes still shows a healthy lifetime ratio), while interval
// deltas surface them.
type Sampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartSampler begins sampling r every interval, writing lines through logf
// (nil selects log.Printf). Idle sites — no attempts, fallbacks, composed
// ops, or open transactions committed, retried or abandoned in the
// interval — are elided. Stop the sampler with Stop; Stop flushes one final
// partial-interval delta before returning, so a run that ends (or a server
// that drains on SIGTERM) between ticks still reports its last interval
// instead of dropping it.
func StartSampler(r *Registry, interval time.Duration, logf func(format string, args ...any)) *Sampler {
	if logf == nil {
		logf = log.Printf
	}
	s := &Sampler{stop: make(chan struct{}), done: make(chan struct{})}
	// The baseline is taken before returning, so activity between
	// StartSampler and the goroutine's first run lands in the first
	// interval instead of silently joining the baseline.
	prev := r.Snapshot()
	prevAt := time.Now()
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				// Final flush: whatever accumulated since the last tick.
				logDelta(r.Snapshot().Delta(prev), time.Since(prevAt), logf)
				return
			case now := <-t.C:
				cur := r.Snapshot()
				logDelta(cur.Delta(prev), now.Sub(prevAt), logf)
				prev, prevAt = cur, now
			}
		}
	}()
	return s
}

// Stop halts the sampler and waits for its goroutine to exit. Safe to call
// more than once.
func (s *Sampler) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// logDelta writes one line per active site of an interval delta:
// speculation, composed and open sites alike.
func logDelta(d Snapshot, elapsed time.Duration, logf func(format string, args ...any)) {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	for _, s := range d.Sites {
		aborts := s.Conflicts + s.Capacity + s.Explicit
		if s.Attempts == 0 && s.Fallbacks == 0 {
			continue
		}
		logf("site %-24s attempts/s %8.0f commit-ratio %5.3f aborts/s %8.0f (conflict %d capacity %d explicit %d) fallbacks/s %7.0f",
			s.Name, float64(s.Attempts)/secs, s.CommitRatio(), float64(aborts)/secs,
			s.Conflicts, s.Capacity, s.Explicit, float64(s.Fallbacks)/secs)
	}
	for _, c := range d.Composed {
		if c.Ops == 0 {
			continue
		}
		meanWidth := 0.0
		if c.Width.Count > 0 {
			meanWidth = float64(c.Width.Sum) / float64(c.Width.Count)
		}
		logf("composed %-20s ops/s %8.0f fast-ratio %5.3f fallback/s %7.0f mcas-fail/s %6.0f restarts/s %6.0f mean-width %.1f",
			c.Name, float64(c.Ops)/secs, c.FastRatio(), float64(c.FallbackCommits)/secs,
			float64(c.MCASFailures)/secs, float64(c.Restarts)/secs, meanWidth)
	}
	for _, o := range d.Open {
		if o.Txns == 0 && o.SemRetries == 0 && o.UserAborts == 0 {
			continue
		}
		meanOps := 0.0
		if o.OpsPerTxn.Count > 0 {
			meanOps = float64(o.OpsPerTxn.Sum) / float64(o.OpsPerTxn.Count)
		}
		logf("open %-24s txns/s %8.0f sem-retries/s %6.0f user-aborts/s %6.0f mean-ops %.1f",
			o.Name, float64(o.Txns)/secs, float64(o.SemRetries)/secs, float64(o.UserAborts)/secs, meanOps)
	}
}
