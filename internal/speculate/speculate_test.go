package speculate

import (
	"testing"

	"repro/internal/htm"
	"repro/internal/telemetry"
)

// capacityBody returns a transaction body that always aborts with
// AbortCapacity on the given crushed-capacity domain.
func capacityDomain() (*htm.Domain, *htm.Var[int], func(tx *htm.Tx)) {
	d := htm.NewDomain(1, 1)
	a := htm.NewVar(d, 0)
	b := htm.NewVar(d, 0)
	return d, a, func(tx *htm.Tx) {
		htm.Load(tx, a)
		htm.Load(tx, b) // second read exceeds readCap=1
	}
}

func TestFixedBudgetAndFallbackCounting(t *testing.T) {
	d, _, body := capacityDomain()
	reg := telemetry.NewRegistry()
	site := Fixed(0).WithMetrics(reg).Site("t/fixed", 1, Level{Name: "l0", Attempts: 3})
	r := site.Begin(d)
	tries := 0
	for r.Next(0) {
		if st := r.Try(body); st != htm.AbortCapacity {
			t.Fatalf("status = %v, want capacity abort", st)
		}
		tries++
	}
	r.Fallback()
	if tries != 3 {
		t.Fatalf("tries = %d, want 3", tries)
	}
	if s := reg.Site("t/fixed").Snapshot(); s.Commits != 0 || s.Fallbacks != 1 || s.Capacity != 3 {
		t.Fatalf("telemetry: %+v", s)
	}
}

func TestAttemptsOverride(t *testing.T) {
	d, _, body := capacityDomain()
	site := Fixed(5).Site("t/override", 1, Level{Name: "l0", Attempts: 2})
	r := site.Begin(d)
	tries := 0
	for r.Next(0) {
		r.Try(body)
		tries++
	}
	if tries != 5 {
		t.Fatalf("tries = %d, want the policy override of 5", tries)
	}
}

func TestZeroBudgetLevelNeverSpeculates(t *testing.T) {
	d, _, _ := capacityDomain()
	site := Fixed(0).Site("t/zero", 1, Level{Name: "l0", Attempts: 0})
	r := site.Begin(d)
	if r.Next(0) {
		t.Fatal("zero-budget level yielded an attempt")
	}
}

func TestExplicitAbortExhaustsLevelByDefault(t *testing.T) {
	d := htm.NewDomain(0, 0)
	explicit := func(tx *htm.Tx) { tx.Abort(7) }
	site := Fixed(0).Site("t/explicit", 1, Level{Name: "l0", Attempts: 4})
	r := site.Begin(d)
	tries := 0
	for r.Next(0) {
		if st := r.Try(explicit); st != htm.AbortExplicit {
			t.Fatalf("status = %v", st)
		}
		tries++
	}
	if tries != 1 {
		t.Fatalf("tries = %d; explicit abort must break a non-retrying level", tries)
	}

	// RetryExplicit levels burn the whole budget instead.
	site = Fixed(0).Site("t/explicit-retry", 1,
		Level{Name: "l0", Attempts: 4, RetryExplicit: true})
	r = site.Begin(d)
	tries = 0
	for r.Next(0) {
		r.Try(explicit)
		tries++
	}
	if tries != 4 {
		t.Fatalf("tries = %d; RetryExplicit: true must consume the budget", tries)
	}
}

func TestFailFastShortCircuitsDeterministicAborts(t *testing.T) {
	d, _, body := capacityDomain()
	pol := Policy{FailFast: true}
	site := pol.Site("t/failfast", 1, Level{Name: "l0", Attempts: 8, RetryExplicit: true})
	r := site.Begin(d)
	tries := 0
	for r.Next(0) {
		r.Try(body)
		tries++
	}
	if tries != 1 {
		t.Fatalf("tries = %d; capacity abort must fail fast", tries)
	}

	// Explicit aborts fail fast too on a RetryExplicit level.
	r = site.Begin(d)
	tries = 0
	for r.Next(0) {
		r.Try(func(tx *htm.Tx) { tx.Abort(1) })
		tries++
	}
	if tries != 1 {
		t.Fatalf("tries = %d; explicit abort must fail fast", tries)
	}
}

func TestMultiLevelCompositionAndCommitAccounting(t *testing.T) {
	d, _, capBody := capacityDomain()
	reg := telemetry.NewRegistry()
	site := Fixed(0).WithMetrics(reg).Site("t/levels", 1,
		Level{Name: "pto1", Attempts: 2},
		Level{Name: "pto2", Attempts: 3})

	r := site.Begin(d)
	for r.Next(0) {
		r.Try(capBody) // level 0 always overflows
	}
	committed := false
	for r.Next(1) {
		if r.Try(func(tx *htm.Tx) {}) == htm.Committed {
			committed = true
			break
		}
	}
	if !committed {
		t.Fatal("empty transaction failed to commit at level 1")
	}
	// Multi-level sites register one telemetry site per tier, labeled with
	// the level name, so attempts/commits attribute to the level they ran at.
	l0 := reg.Site("t/levels/pto1").Snapshot()
	l1 := reg.Site("t/levels/pto2").Snapshot()
	if l0.Level != "pto1" || l1.Level != "pto2" {
		t.Fatalf("level labels: %q, %q", l0.Level, l1.Level)
	}
	if l0.Attempts != 2 || l0.Capacity != 2 || l0.Commits != 0 {
		t.Fatalf("level-0 telemetry: %+v", l0)
	}
	if l1.Attempts != 1 || l1.Commits != 1 || l0.Fallbacks+l1.Fallbacks != 0 {
		t.Fatalf("level-1 telemetry: %+v", l1)
	}
	if got := l0.SpecNanos.Count + l1.SpecNanos.Count; got != 1 {
		t.Fatalf("latency observations = %d, want 1 (on commit)", got)
	}
}

func TestSkipBurnsBudgetWithoutTransaction(t *testing.T) {
	d := htm.NewDomain(0, 0)
	reg := telemetry.NewRegistry()
	site := Fixed(0).WithMetrics(reg).Site("t/skip", 1, Level{Name: "l0", Attempts: 3})
	r := site.Begin(d)
	iters := 0
	for r.Next(0) {
		r.Skip()
		iters++
	}
	if iters != 3 {
		t.Fatalf("iters = %d, want 3", iters)
	}
	if got := reg.Site("t/skip").Snapshot().Attempts; got != 0 {
		t.Fatalf("Skip recorded %d attempts, want 0", got)
	}
}

func TestConflictAbortRetriesWithBackoff(t *testing.T) {
	d := htm.NewDomain(0, 0)
	v := htm.NewVar(d, 0)
	// The body writes the Var non-transactionally before its transactional
	// read of the same Var, whose stamp is then newer than the snapshot: a
	// deterministic conflict abort.
	conflict := func(tx *htm.Tx) {
		htm.Store(nil, v, 1)
		htm.Load(tx, v)
	}
	pol := Policy{Backoff: true}
	site := pol.Site("t/conflict", 1, Level{Name: "l0", Attempts: 5})
	r := site.Begin(d)
	tries := 0
	for r.Next(0) {
		if st := r.Try(conflict); st != htm.AbortConflict {
			t.Fatalf("status = %v, want conflict", st)
		}
		tries++
	}
	if tries != 5 {
		t.Fatalf("tries = %d; conflicts must consume the whole budget", tries)
	}
}

func TestAdaptiveDisableAndReprobe(t *testing.T) {
	d, _, body := capacityDomain()
	reg := telemetry.NewRegistry()
	pol := Policy{Adapt: true}
	site := pol.WithMetrics(reg).Site("t/adapt", 1, Level{Name: "l0", Attempts: 2})

	// Two attempts an op, none committing: the first window closes after
	// DefaultWindow/2 ops, the next DefaultSkipOps ops skip, and the last
	// reprobe ops speculate again without filling a second window.
	const reprobe = 8
	const ops = DefaultWindow/2 + DefaultSkipOps + reprobe
	speculated, skipped := 0, 0
	for op := 0; op < ops; op++ {
		r := site.Begin(d)
		any := false
		for r.Next(0) {
			r.Try(body)
			any = true
		}
		r.Fallback()
		if any {
			speculated++
		} else {
			skipped++
		}
	}
	ts := reg.Site("t/adapt").Snapshot()
	if ts.Disables != 1 {
		t.Fatalf("0%% commit ratio tripped the adaptive disable %d times, want 1: %+v", ts.Disables, ts)
	}
	if ts.Skipped != DefaultSkipOps || skipped != DefaultSkipOps {
		t.Fatalf("skipped %d ops (telemetry %d), want the whole disable period %d", skipped, ts.Skipped, DefaultSkipOps)
	}
	if speculated != DefaultWindow/2+reprobe {
		t.Fatalf("speculated on %d ops, want %d: the site must re-probe after the disable period", speculated, DefaultWindow/2+reprobe)
	}
	if ts.Fallbacks != ops {
		t.Fatalf("fallbacks = %d, want %d", ts.Fallbacks, ops)
	}
}

func TestHealthySiteNeverDisables(t *testing.T) {
	d := htm.NewDomain(0, 0)
	reg := telemetry.NewRegistry()
	pol := Adaptive().WithMetrics(reg)
	site := pol.Site("t/healthy", 1, Level{Name: "l0", Attempts: 3})
	for op := 0; op < 100; op++ {
		r := site.Begin(d)
		for r.Next(0) {
			if r.Try(func(tx *htm.Tx) {}) == htm.Committed {
				break
			}
		}
	}
	ts := reg.Site("t/healthy").Snapshot()
	if ts.Disables != 0 || ts.Skipped != 0 {
		t.Fatalf("healthy site adapted away its speculation: %+v", ts)
	}
	if ts.Commits != 100 {
		t.Fatalf("commits = %d, want 100", ts.Commits)
	}
}

// TestPerLevelAdaptiveIndependence drives a two-level site whose level-0
// body always capacity-aborts while level-1 always commits. The (site,
// level) windows must disable level 0 without touching level 1: after the
// disable trips, Next(0) yields nothing but Next(1) keeps speculating, and
// the op still commits at level 1.
func TestPerLevelAdaptiveIndependence(t *testing.T) {
	d, _, capBody := capacityDomain()
	reg := telemetry.NewRegistry()
	pol := Policy{Adapt: true}
	site := pol.WithMetrics(reg).Site("t/perlevel", 1,
		Level{Name: "pto1", Attempts: 2},
		Level{Name: "pto2", Attempts: 2},
	)

	level0Skipped, level1Commits := 0, 0
	for op := 0; op < 100; op++ {
		r := site.Begin(d)
		tried0 := false
		for r.Next(0) {
			r.Try(capBody)
			tried0 = true
		}
		if !tried0 {
			level0Skipped++
		}
		committed := false
		for r.Next(1) {
			if r.Try(func(tx *htm.Tx) {}) == htm.Committed {
				committed = true
				break
			}
		}
		if !committed {
			t.Fatalf("op %d failed to commit at level 1", op)
		}
		level1Commits++
	}
	if level0Skipped == 0 {
		t.Fatal("level 0 with 0% commit ratio never adaptively disabled")
	}
	if level1Commits != 100 {
		t.Fatalf("level-1 commits = %d, want 100", level1Commits)
	}
	l0 := reg.Site("t/perlevel/pto1").Snapshot()
	l1 := reg.Site("t/perlevel/pto2").Snapshot()
	if l0.Disables == 0 {
		t.Fatalf("no adaptive disable recorded at level 0: %+v", l0)
	}
	// A healthy level 1 must never be the one disabled: a disable period
	// outlasts the test, so had level 1 been disabled the commits above
	// would have stopped.
	if l1.Disables != 0 {
		t.Fatalf("healthy level 1 was disabled: %+v", l1)
	}
	if l1.Commits < 100 {
		t.Fatalf("level-1 commits = %d, want >= 100", l1.Commits)
	}
}

// BenchmarkSiteEmptyTry times the attempt's fixed cost: Begin, Next(0) and
// Try of an empty body on a Fixed(0) site, the shape the benchmark's
// speculate.empty_try_ns probe times. Subtract a bare empty Atomically
// (htm's BenchmarkEmptyTxn) for the engine's own share.
func BenchmarkSiteEmptyTry(b *testing.B) {
	d := htm.NewDomain(0, 0)
	site := Fixed(0).Site("b/empty", 1, Level{Name: "pto", Attempts: 3})
	body := func(tx *htm.Tx) {}
	for i := 0; i < b.N; i++ {
		r := site.Begin(d)
		for r.Next(0) {
			if r.Try(body) == htm.Committed {
				break
			}
		}
	}
}

// TestAllocsSiteRun pins the package doc's promise that a Run adds no
// per-operation garbage: Begin, Next, Try and Fallback around a pre-built
// body allocate exactly what a bare d.Atomically of that body allocates,
// with no policy and with adaptation and telemetry on. The body aborts
// explicitly on every other call, so half the operations end in Fallback;
// a 50% commit ratio keeps the adaptive window from disabling the level.
func TestAllocsSiteRun(t *testing.T) {
	d := htm.NewDomain(0, 0)
	n := 0
	body := func(tx *htm.Tx) {
		if n++; n%2 == 1 {
			tx.Abort(1)
		}
	}
	bare := testing.AllocsPerRun(1000, func() { d.Atomically(body) })
	for name, pol := range map[string]Policy{
		"fixed":            Fixed(0),
		"adaptive+metrics": Adaptive().WithMetrics(telemetry.NewRegistry()),
	} {
		site := pol.Site("t/allocs", 1, Level{Name: "l0", Attempts: 3})
		op := func() {
			r := site.Begin(d)
			for r.Next(0) {
				if r.Try(body) == htm.Committed {
					return
				}
			}
			r.Fallback()
		}
		if got := testing.AllocsPerRun(1000, op); got != bare {
			t.Errorf("%s: a Run allocates %.1f objects, a bare Atomically %.1f", name, got, bare)
		}
		if pol.Metrics != nil {
			if s := pol.Metrics.Site("t/allocs").Snapshot(); s.Fallbacks == 0 || s.Commits == 0 || s.Disables != 0 {
				t.Errorf("%s: the run did not cover both exits: %+v", name, s)
			}
		}
	}
}
