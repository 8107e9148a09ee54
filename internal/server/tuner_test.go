package server

import (
	"testing"
	"time"
)

// TestShardTunerWiring drives each shard's tune controller manually
// (TuneInterval < 0: constructed but not ticking) against a synthetic
// capacity-heavy interval on the shard's own telemetry site, and checks the
// actuation lands in the shard's batcher and surfaces through Stats.
func TestShardTunerWiring(t *testing.T) {
	s := New(Config{Shards: 2, TuneInterval: -1, AdmitInterval: -1})
	defer s.Close()
	sh := s.shards[0]
	if got := sh.b.BatchK(); got != DefaultMaxBatch {
		t.Fatalf("provisioned batch k = %d, want %d", got, DefaultMaxBatch)
	}
	// Capacity-heavy interval on this shard's site only.
	sh.site.Attempts.Add(1000)
	sh.site.Commits.Add(700)
	sh.site.Capacity.Add(100)
	if got := sh.tuner.Step(); got == 0 {
		t.Fatal("capacity-heavy interval fired no actuation")
	}
	if got := sh.b.BatchK(); got != DefaultMaxBatch/2 {
		t.Fatalf("shard 0 batch k = %d after capacity interval, want %d", got, DefaultMaxBatch/2)
	}
	// Shard isolation: shard 1 saw no traffic and must be untouched.
	if got := s.shards[1].b.BatchK(); got != DefaultMaxBatch {
		t.Fatalf("shard 1 batch k = %d, want untouched %d", got, DefaultMaxBatch)
	}
	st := s.Stats()
	if st.TuneActions == 0 {
		t.Fatalf("stats = %+v: tune actions missing", st)
	}
	tn := st.Shards[0].Tune
	if tn.BatchK != DefaultMaxBatch/2 || tn.BatchActions == 0 || tn.Actions == 0 {
		t.Fatalf("shard 0 tune stats = %+v", tn)
	}
	if len(tn.Budgets) == 0 {
		t.Fatal("budget snapshot missing from shard tune stats")
	}
}

// TestShardTunerBackground: with a real cadence, synthetic capacity
// pressure is picked up without any manual stepping, and Close stops the
// loop.
func TestShardTunerBackground(t *testing.T) {
	s := New(Config{Shards: 1, TuneInterval: time.Millisecond, AdmitInterval: -1})
	defer s.Close()
	sh := s.shards[0]
	for i := 0; i < 2000; i++ {
		sh.site.Attempts.Add(100)
		sh.site.Commits.Add(70)
		sh.site.Capacity.Add(10)
		if s.Stats().TuneActions > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("background shard tuner never actuated")
}
