package simtxn

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/telemetry"
)

// The helping middle's rules, as the level loop in Manager.Atomic applies
// them under simspec.DefaultPolicy (ablation A10's policy): a capacity abort
// ends the middle, an explicit abort consumes one attempt, one level walk
// helps at most helpBudget descriptors, and WithMiddle(0, 0) means 2
// attempts and 4 descriptors.

// middleStats runs one composed operation on a fresh one-thread machine
// through a manager with WithMiddle(attempts, helpBudget) under the
// default policy, and returns the middle level's counters. cfg shapes the
// machine; prep stages memory on the machine's thread before the operation
// and returns its body.
func middleStats(t *testing.T, cfg sim.Config, attempts, helpBudget int, prep func(th *sim.Thread) func(c *Ctx)) telemetry.SiteSnapshot {
	t.Helper()
	reg := telemetry.NewRegistry()
	mgr := New(0).WithPolicy(simspec.DefaultPolicy().WithMetrics(reg)).WithMiddle(attempts, helpBudget)
	m := sim.New(cfg)
	m.Run(func(th *sim.Thread) { mgr.Atomic(th, prep(th)) })
	for _, s := range reg.Snapshot().Sites {
		if s.Level == "middle" {
			return s
		}
	}
	t.Fatalf("no middle level registered: %+v", reg.Snapshot().Sites)
	return telemetry.SiteSnapshot{}
}

// TestMiddleCapacityAbortEndsLevel: a body whose footprint overflows the
// write set aborts on capacity at every fast attempt and at the middle's
// first, after which the middle hands the operation to the fallback
// although two of its three attempts remain.
func TestMiddleCapacityAbortEndsLevel(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.WriteSetLines = 1
	s := middleStats(t, cfg, 3, 0, func(th *sim.Thread) func(c *Ctx) {
		a := th.Alloc(2 * sim.LineWords)
		return func(c *Ctx) {
			c.Write(a, 1)
			c.Write(a+sim.LineWords, 1)
		}
	})
	if s.Attempts != 1 || s.Capacity != 1 || s.Fallbacks != 1 {
		t.Fatalf("middle after a capacity abort: %+v, want 1 attempt, 1 capacity abort, 1 fallback", s)
	}
}

// TestMiddleExplicitAbortConsumesOneAttempt: a body that retries on every
// speculative attempt spends the middle's whole budget one explicit abort
// at a time, the default budget as well as a declared one.
func TestMiddleExplicitAbortConsumesOneAttempt(t *testing.T) {
	retry := func(th *sim.Thread) func(c *Ctx) {
		a := th.Alloc(1)
		return func(c *Ctx) {
			if c.Speculative() {
				c.Retry()
			}
			c.Write(a, 1)
		}
	}
	for _, tc := range []struct{ attempts, want int }{{3, 3}, {0, 2}} {
		s := middleStats(t, sim.DefaultConfig(1), tc.attempts, 0, retry)
		if s.Attempts != uint64(tc.want) || s.Explicit != uint64(tc.want) || s.Fallbacks != 1 {
			t.Errorf("WithMiddle(%d, 0) under explicit aborts: %+v, want %d attempts, all explicit, 1 fallback", tc.attempts, s, tc.want)
		}
	}
}

// TestMiddleHelpBudgetPerWalk plants six words, each claimed by its own
// undecided MultiCAS descriptor, and reads them all in one body. Each
// middle attempt trips on the first still-claimed word; the level loop
// helps its descriptor between attempts until the walk's budget is spent,
// and the fallback's capture helps the rest.
func TestMiddleHelpBudgetPerWalk(t *testing.T) {
	const planted = 6
	claimed := func(th *sim.Thread) func(c *Ctx) {
		a := th.Alloc(planted)
		for i := sim.Addr(0); i < planted; i++ {
			d := newDesc(th, []entry{{addr: a + i, old: 0, new: 1, write: true}})
			th.Store(a+i, uint64(d)|markerBit)
		}
		return func(c *Ctx) {
			for i := sim.Addr(0); i < planted; i++ {
				c.Read(a + i)
			}
		}
	}
	for _, tc := range []struct{ budget, want int }{{2, 2}, {0, 4}} {
		s := middleStats(t, sim.DefaultConfig(1), 10, tc.budget, claimed)
		if s.Helped != uint64(tc.want) || s.Attempts != 10 || s.Fallbacks != 1 {
			t.Errorf("WithMiddle(10, %d) over %d claimed words: %+v, want %d helped, 10 attempts, 1 fallback", tc.budget, planted, s, tc.want)
		}
	}
}
