package simspec

import (
	"fmt"
	"testing"

	"repro/internal/htm"
	"repro/internal/sim"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// The cross-driver parity tests are the determinism lock the resumable
// ablations rely on: one scripted abort feed is pushed through the
// wall-clock driver (speculate.Site over htm.Domain) and through this
// package's modeled-cycles driver (Site over sim.Thread), and the two
// decision traces — which level attempted, with which outcome, and where
// the operation fell back — must be identical, for Fixed(N) and Adaptive
// alike, and so must the telemetry each driver books into its own registry:
// site names and every counter, the latency histogram by its observation
// count (nanoseconds and cycles differ). Conflict outcomes are excluded from the scripts (neither
// substrate can stage a data conflict deterministically from one thread);
// the conflict→backoff progression is shared speculate.Op code, pinned by the
// tables in speculate's op_test.go and by TestSimBackoffPlacement below.

func label(o speculate.Outcome) string {
	switch o {
	case speculate.OutcomeCommit:
		return "commit"
	case speculate.OutcomeCapacity:
		return "capacity"
	case speculate.OutcomeExplicit:
		return "explicit"
	}
	return "conflict"
}

// realTrace drives the scripted per-op feeds through the wall-clock driver,
// recording into reg.
func realTrace(pol speculate.Policy, reg *telemetry.Registry, levels []speculate.Level, ops [][]speculate.Outcome) []string {
	d := htm.NewDomain(0, 0)
	v := htm.NewVar[uint64](d, 0)
	site := pol.WithMetrics(reg).Site("parity", 1, levels...)
	var out []string
	for _, feed := range ops {
		i := 0
		r := site.Begin(d)
		committed := false
		for level := 0; level < len(levels) && !committed; level++ {
			for r.Next(level) {
				if i >= len(feed) {
					out = append(out, "feed-exhausted")
					return out
				}
				want := feed[i]
				i++
				var st htm.Status
				switch want {
				case speculate.OutcomeCommit:
					st = r.Try(func(tx *htm.Tx) {})
				case speculate.OutcomeExplicit:
					st = r.Try(func(tx *htm.Tx) { tx.Abort(1) })
				case speculate.OutcomeCapacity:
					d.SetCapacity(-1, -1)
					st = r.Try(func(tx *htm.Tx) { htm.Load(tx, v) })
					d.SetCapacity(0, 0)
				}
				switch st {
				case htm.Committed:
					out = append(out, fmt.Sprintf("L%d:commit", level))
					committed = true
				case htm.AbortCapacity:
					out = append(out, fmt.Sprintf("L%d:capacity", level))
				case htm.AbortExplicit:
					out = append(out, fmt.Sprintf("L%d:explicit", level))
				default:
					out = append(out, fmt.Sprintf("L%d:conflict", level))
				}
				if committed {
					break
				}
			}
		}
		if !committed {
			r.Fallback()
			out = append(out, "fallback")
		}
	}
	return out
}

// simTrace drives the same feeds through the modeled-cycles driver on a
// one-thread machine whose write-set capacity is a single line, so a
// two-line transactional write stages a genuine capacity abort.
func simTrace(pol speculate.Policy, reg *telemetry.Registry, levels []speculate.Level, ops [][]speculate.Outcome) []string {
	cfg := sim.DefaultConfig(1)
	cfg.WriteSetLines = 1
	m := sim.New(cfg)
	base := m.Thread(0).Alloc(3 * sim.LineWords)
	site := New("parity", pol.WithMetrics(reg), levels...)
	var out []string
	m.Run(func(t *sim.Thread) {
		for _, feed := range ops {
			i := 0
			r := site.Begin(t)
			committed := false
			for level := 0; level < len(levels) && !committed; level++ {
				for r.Next(level) {
					if i >= len(feed) {
						out = append(out, "feed-exhausted")
						return
					}
					want := feed[i]
					i++
					var st sim.Status
					switch want {
					case speculate.OutcomeCommit:
						st = r.Try(func() {})
					case speculate.OutcomeExplicit:
						st = r.Try(func() { t.TxAbort(1) })
					case speculate.OutcomeCapacity:
						st = r.Try(func() {
							t.Store(base, 1)
							t.Store(base+sim.LineWords, 1)
						})
					}
					switch st {
					case sim.OK:
						out = append(out, fmt.Sprintf("L%d:commit", level))
						committed = true
					case sim.AbortCapacity:
						out = append(out, fmt.Sprintf("L%d:capacity", level))
					case sim.AbortExplicit:
						out = append(out, fmt.Sprintf("L%d:explicit", level))
					default:
						out = append(out, fmt.Sprintf("L%d:conflict", level))
					}
					if committed {
						break
					}
				}
			}
			if !committed {
				r.Fallback()
				out = append(out, "fallback")
			}
		}
	})
	return out
}

func repeat(o speculate.Outcome, n int) []speculate.Outcome {
	f := make([]speculate.Outcome, n)
	for i := range f {
		f[i] = o
	}
	return f
}

// parity runs the feeds through both drivers, fails the test unless their
// decision traces and telemetry agree, and returns the wall-clock trace.
func parity(t *testing.T, pol speculate.Policy, levels []speculate.Level, ops [][]speculate.Outcome) []string {
	t.Helper()
	realReg, simReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	real := realTrace(pol, realReg, levels, ops)
	mod := simTrace(pol, simReg, levels, ops)
	if len(real) != len(mod) {
		t.Fatalf("trace length: real %v\nsim %v", real, mod)
	}
	for i := range real {
		if real[i] != mod[i] {
			t.Fatalf("decision %d: real %q sim %q\nreal %v\nsim %v", i, real[i], mod[i], real, mod)
		}
	}
	rs, ms := realReg.Snapshot().Sites, simReg.Snapshot().Sites
	if len(rs) != len(ms) {
		t.Fatalf("sites: real %v\nsim %v", rs, ms)
	}
	for i := range rs {
		r, m := rs[i], ms[i]
		r.SpecNanos = telemetry.HistogramSnapshot{Count: r.SpecNanos.Count}
		m.SpecNanos = telemetry.HistogramSnapshot{Count: m.SpecNanos.Count}
		if r != m {
			t.Fatalf("telemetry of site %d:\nreal %+v\nsim  %+v", i, r, m)
		}
	}
	return real
}

func TestCrossDriverDecisionParity(t *testing.T) {
	single := []speculate.Level{{Name: "pto", Attempts: 3, RetryExplicit: true}}
	// A single level named like the composition layer's fast level: both
	// drivers register it under the bare site name.
	singleFast := []speculate.Level{{Name: "fast", Attempts: 3, RetryExplicit: true}}
	twoTier := []speculate.Level{
		{Name: "pto1", Attempts: 2},
		{Name: "pto2", Attempts: 4, RetryExplicit: true},
	}
	// The three-path site as simtxn declares it: a fast level over the
	// helping middle's plain level (simtxn's level loop, not the site,
	// applies the middle's own rules).
	threePath := []speculate.Level{
		{Name: "fast", Attempts: 2, RetryExplicit: true},
		{Name: "middle", Attempts: 2, RetryExplicit: true},
	}
	// Both abort rules at an outer and at an inner tier: a plain level (an
	// explicit abort exhausts it) around a RetryExplicit one (both aborts
	// follow the policy) around a plain one again.
	ruledThree := []speculate.Level{
		{Name: "fast", Attempts: 2},
		{Name: "middle", Attempts: 3, RetryExplicit: true},
		{Name: "pto2", Attempts: 2},
	}
	policies := map[string]speculate.Policy{
		"fixed-default":  speculate.Fixed(0),
		"fixed-2":        speculate.Fixed(2),
		"fixed-4":        speculate.Fixed(4),
		"adaptive":       speculate.Adaptive(),
		"sim-default":    {Adapt: true},
		"failfast-fixed": {Attempts: 3, FailFast: true},
	}
	feeds := map[string][][]speculate.Outcome{
		"explicit-storm": {repeat(speculate.OutcomeExplicit, 20), repeat(speculate.OutcomeExplicit, 20)},
		"capacity-storm": {repeat(speculate.OutcomeCapacity, 20), repeat(speculate.OutcomeCapacity, 20)},
		"commit-first":   {{speculate.OutcomeCommit}, {speculate.OutcomeCommit}},
		"mixed": {
			{speculate.OutcomeExplicit, speculate.OutcomeCommit},
			append(repeat(speculate.OutcomeCapacity, 3), repeat(speculate.OutcomeCommit, 1)...),
			append(repeat(speculate.OutcomeExplicit, 6), speculate.OutcomeCommit),
		},
	}
	for _, lv := range []struct {
		name   string
		levels []speculate.Level
	}{
		{"single", single},
		{"single-fast", singleFast},
		{"two-tier", twoTier},
		{"three-path", threePath},
		{"ruled-three", ruledThree},
	} {
		for pname, pol := range policies {
			for fname, ops := range feeds {
				name := lv.name + "/" + pname + "/" + fname
				t.Run(name, func(t *testing.T) { parity(t, pol, lv.levels, ops) })
			}
		}
	}
}

// TestCrossDriverAdaptiveDisableParity pushes enough failing operations
// through both drivers to close an adaptation window and checks the
// disable/re-probe schedule lines up: under Adaptive() every explicit
// abort exhausts its level (fail-fast), so after DefaultWindow failing
// attempts the level disables for DefaultSkipOps operations on both
// substrates.
func TestCrossDriverAdaptiveDisableParity(t *testing.T) {
	levels := []speculate.Level{{Name: "pto", Attempts: 3, RetryExplicit: true}}
	nops := speculate.DefaultWindow + 40
	ops := make([][]speculate.Outcome, nops)
	for i := range ops {
		ops[i] = repeat(speculate.OutcomeExplicit, 4)
	}
	real := parity(t, speculate.Adaptive(), levels, ops)
	// Sanity: the tail of the trace must be pure fallbacks (disabled site),
	// not attempt/fallback pairs.
	last := real[len(real)-2:]
	if last[0] != "fallback" || last[1] != "fallback" {
		t.Fatalf("expected disabled tail, got %v", real[len(real)-6:])
	}
}

// TestSimBackoffPlacement is the regression test for the historical simds
// inconsistency (some structures backed off before falling back, msqueue
// only between attempts): the shared driver owes backoff cycles only
// before a retry that follows a conflict abort — never before the first
// attempt, and never before the fallback.
func TestSimBackoffPlacement(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	m := sim.New(cfg)
	pol := speculate.Policy{Adapt: true}
	site := New("backoff", pol, speculate.Level{Name: "pto", Attempts: 4, RetryExplicit: true})
	m.Run(func(t2 *sim.Thread) {
		// Baseline: cost of one committed empty attempt with no history.
		r := site.Begin(t2)
		r.Next(0)
		before := t2.Now()
		r.Try(func() {})
		clean := t2.Now() - before

		// First attempt of a fresh run owes nothing even though the site
		// just saw activity.
		r2 := site.Begin(t2)
		r2.Next(0)
		if b := r2.Backoff(); b != 0 {
			t.Errorf("fresh run owes backoff %d", b)
		}

		// Conflict outcomes arm the backoff (1,2,4,8 units); the next Try
		// must charge it as Work before attempting. With 8 pending units the
		// jittered span is at least 4 units, so the charge is unambiguous.
		for i := 0; i < 4; i++ {
			r2.Book(speculate.OutcomeConflict)
		}
		if b := r2.Backoff(); b != 8 {
			t.Fatalf("want 8 pending backoff units, got %d", b)
		}
		before = t2.Now()
		r2.Try(func() {})
		withBackoff := t2.Now() - before
		if withBackoff < clean+4*DefaultBackoffCycles {
			t.Errorf("armed retry cost %d; want at least clean %d + 4 backoff units", withBackoff, clean)
		}

		// Exhaust the level with conflicts, then fall back: Fallback must
		// not charge the pending backoff.
		r3 := site.Begin(t2)
		for r3.Next(0) {
			r3.Book(speculate.OutcomeConflict)
		}
		if b := r3.Backoff(); b == 0 {
			t.Fatal("exhausted run should still hold pending backoff state")
		}
		before = t2.Now()
		r3.Fallback()
		if d := t2.Now() - before; d != 0 {
			t.Errorf("fallback charged %d cycles of backoff; must charge none", d)
		}

		// Entering the next level clears pending backoff (no cross-level
		// carry-over).
		site2 := New("backoff2", pol,
			speculate.Level{Name: "a", Attempts: 1},
			speculate.Level{Name: "b", Attempts: 1, RetryExplicit: true})
		r4 := site2.Begin(t2)
		r4.Next(0)
		r4.Book(speculate.OutcomeConflict)
		r4.Next(1)
		if b := r4.Backoff(); b != 0 {
			t.Errorf("level change carried backoff %d", b)
		}
	})
}

// TestLaneIsolation checks the adaptive lanes are per hardware thread: a
// thread whose attempts all fail disables only its own lane, so a healthy
// sibling keeps speculating. Run with -race, this also proves the driver
// keeps no shared mutable policy state between simulated threads.
func TestLaneIsolation(t *testing.T) {
	m := sim.New(sim.DefaultConfig(2))
	pol := speculate.Policy{Adapt: true}
	site := New("lanes", pol, speculate.Level{Name: "pto", Attempts: 1, RetryExplicit: true})
	// One attempt per op: the failing lane's window closes after
	// DefaultWindow ops and the rest of its ops are skipped.
	const ops = speculate.DefaultWindow + 16
	commits := [2]int{}
	skips := [2]int{}
	m.Run(func(t2 *sim.Thread) {
		for i := 0; i < ops; i++ {
			r := site.Begin(t2)
			if !r.Next(0) {
				skips[t2.ID()]++
				r.Fallback()
				continue
			}
			st := r.Try(func() {
				if t2.ID() == 1 {
					t2.TxAbort(1)
				}
			})
			if st == sim.OK {
				commits[t2.ID()]++
			} else {
				r.Fallback()
			}
		}
	})
	if commits[0] != ops || skips[0] != 0 {
		t.Errorf("healthy lane throttled: commits=%d skips=%d", commits[0], skips[0])
	}
	if skips[1] != ops-speculate.DefaultWindow {
		t.Errorf("failing lane skipped %d ops, want %d (commits=%d)", skips[1], ops-speculate.DefaultWindow, commits[1])
	}
}
