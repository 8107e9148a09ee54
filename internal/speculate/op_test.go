package speculate

import (
	"fmt"
	"testing"
)

// trace drives one operation over a scripted feed and records every
// decision point: the backoff owed before each attempt, the outcome fed, and
// where the operation stopped. Levels are tried outermost-first; each level
// consumes feed entries until the Op refuses more attempts.
func trace(s *Site, feed []Outcome) []string {
	var out []string
	o := s.Start(0, wallClock{})
	i := 0
	for level := 0; level < s.Levels(); level++ {
		for o.Next(level) {
			if i >= len(feed) {
				out = append(out, fmt.Sprintf("L%d:feed-exhausted", level))
				return out
			}
			f := feed[i]
			i++
			out = append(out, fmt.Sprintf("L%d:backoff=%d:%v", level, o.Backoff(), f))
			o.Book(f, 0)
			if f == OutcomeCommit {
				out = append(out, "commit")
				return out
			}
		}
	}
	out = append(out, "fallback")
	return out
}

func (o Outcome) String() string {
	switch o {
	case OutcomeCommit:
		return "commit"
	case OutcomeConflict:
		return "conflict"
	case OutcomeCapacity:
		return "capacity"
	case OutcomeExplicit:
		return "explicit"
	}
	return "?"
}

func eq(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decision sequence mismatch:\n got %v\nwant %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("decision %d: got %q want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestWalkDecisionTables(t *testing.T) {
	one := Level{Name: "pto", Attempts: 3, RetryExplicit: true}
	noRetry := Level{Name: "pto1", Attempts: 3}
	cases := []struct {
		name   string
		pol    Policy
		levels []Level
		feed   []Outcome
		want   []string
	}{
		{
			name: "fixed exhausts budget on conflicts, no backoff",
			pol:  Fixed(0), levels: []Level{one},
			feed: []Outcome{OutcomeConflict, OutcomeConflict, OutcomeConflict},
			want: []string{"L0:backoff=0:conflict", "L0:backoff=0:conflict", "L0:backoff=0:conflict", "fallback"},
		},
		{
			name: "policy attempts override level budget",
			pol:  Fixed(1), levels: []Level{one},
			feed: []Outcome{OutcomeConflict},
			want: []string{"L0:backoff=0:conflict", "fallback"},
		},
		{
			name: "conflict backoff doubles from base and resets per level",
			pol:  Policy{Attempts: 4, Backoff: true}, levels: []Level{one, one},
			feed: []Outcome{OutcomeConflict, OutcomeConflict, OutcomeConflict, OutcomeConflict, OutcomeConflict},
			want: []string{
				"L0:backoff=0:conflict", "L0:backoff=1:conflict",
				"L0:backoff=2:conflict", "L0:backoff=4:conflict",
				"L1:backoff=0:conflict", "L1:feed-exhausted",
			},
		},
		{
			name: "capacity without failfast burns one attempt",
			pol:  Fixed(0), levels: []Level{one},
			feed: []Outcome{OutcomeCapacity, OutcomeCommit},
			want: []string{"L0:backoff=0:capacity", "L0:backoff=0:commit", "commit"},
		},
		{
			name: "failfast capacity exhausts the level",
			pol:  Policy{FailFast: true}, levels: []Level{one, one},
			feed: []Outcome{OutcomeCapacity, OutcomeCapacity},
			want: []string{"L0:backoff=0:capacity", "L1:backoff=0:capacity", "fallback"},
		},
		{
			name: "explicit retried when the level allows it",
			pol:  Fixed(0), levels: []Level{one},
			feed: []Outcome{OutcomeExplicit, OutcomeExplicit, OutcomeExplicit},
			want: []string{"L0:backoff=0:explicit", "L0:backoff=0:explicit", "L0:backoff=0:explicit", "fallback"},
		},
		{
			name: "explicit exhausts a no-retry level",
			pol:  Fixed(0), levels: []Level{noRetry, one},
			feed: []Outcome{OutcomeExplicit, OutcomeCommit},
			want: []string{"L0:backoff=0:explicit", "L1:backoff=0:commit", "commit"},
		},
		{
			name: "failfast overrides RetryExplicit",
			pol:  Adaptive(), levels: []Level{one},
			feed: []Outcome{OutcomeExplicit},
			want: []string{"L0:backoff=0:explicit", "fallback"},
		},
		{
			name: "zero-budget level is skipped entirely",
			pol:  Fixed(0), levels: []Level{{Name: "off", Attempts: 0}, one},
			feed: []Outcome{OutcomeCommit},
			want: []string{"L1:backoff=0:commit", "commit"},
		},
		{
			// A Help level under a fail-fast policy keeps retrying explicit
			// aborts while the fail-fast fast level ahead of it exhausts
			// immediately.
			name: "help level retries explicit under failfast",
			pol:  Adaptive(), levels: []Level{one, MiddleLevel(3, 0)},
			feed: []Outcome{OutcomeExplicit, OutcomeExplicit, OutcomeExplicit, OutcomeCommit},
			want: []string{
				"L0:backoff=0:explicit",
				"L1:backoff=0:explicit", "L1:backoff=0:explicit",
				"L1:backoff=0:commit", "commit",
			},
		},
		{
			// A Help level's capacity abort exhausts it even when the policy
			// is not fail-fast: the footprint overflows again no matter how
			// much helping happens.
			name: "help level exhausts on capacity without failfast",
			pol:  Fixed(0), levels: []Level{MiddleLevel(3, 0), one},
			feed: []Outcome{OutcomeCapacity, OutcomeCommit},
			want: []string{"L0:backoff=0:capacity", "L1:backoff=0:commit", "commit"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eq(t, trace(tc.pol.Site("t", 1, tc.levels...), tc.feed), tc.want)
		})
	}
}

func TestWalkBackoffCap(t *testing.T) {
	pol := Policy{Attempts: 32, Backoff: true}
	o := pol.Site("t", 1, Level{Name: "l", Attempts: 1}).Start(0, nil)
	o.Next(0)
	var seq []int
	for i := 0; i < 10; i++ {
		seq = append(seq, o.Backoff())
		o.Book(OutcomeConflict, 0)
	}
	want := []int{0, 1, 2, 4, 8, 16, 32, DefaultBackoffMax, DefaultBackoffMax, DefaultBackoffMax}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("backoff progression %v, want %v", seq, want)
		}
	}
}

// TestWalkDisableGate pins where the adaptive gate runs: once per entry to a
// level, not once per Next.
func TestWalkDisableGate(t *testing.T) {
	s := Policy{Adapt: true}.Site("t", 1, Level{Name: "a", Attempts: 2}, Level{Name: "b", Attempts: 2})
	s.win[0].skip.Store(2) // level a is disabled for two entries
	o := s.Start(0, nil)
	if o.Next(0) {
		t.Fatal("disabled level must refuse attempts")
	}
	if o.Next(0) || s.win[0].skip.Load() != 1 {
		t.Fatalf("re-Next of the same level must neither reset nor spend a skip (skip=%d)", s.win[0].skip.Load())
	}
	if !o.Next(1) {
		t.Fatal("next level must be attemptable after a disable")
	}
}

func TestWalkSkipBurnsBudget(t *testing.T) {
	o := Fixed(0).Site("t", 1, Level{Name: "a", Attempts: 2}).Start(0, nil)
	o.Next(0)
	o.Skip()
	o.Skip()
	if o.Next(0) {
		t.Fatal("Skip must consume budget")
	}
}

// TestShouldDisableThreshold pins the adaptation threshold: a window of
// DefaultWindow attempts with 12 commits (below 0.2·64 = 12.8) disables the
// level, one with 13 does not.
func TestShouldDisableThreshold(t *testing.T) {
	for _, tc := range []struct {
		commits int
		skip    int64
	}{{12, DefaultSkipOps}, {13, 0}} {
		s := Adaptive().Site("t", 1, Level{Name: "l", Attempts: 1})
		for i := 0; i < DefaultWindow; i++ {
			s.record(0, 0, i < tc.commits)
		}
		if got := s.win[0].skip.Load(); got != tc.skip {
			t.Fatalf("%d/%d commits: skip = %d, want %d", tc.commits, DefaultWindow, got, tc.skip)
		}
	}
}

// TestBudgetResolution pins the static resolution of both budgets: nothing
// but the policy and the level declaration decides them.
func TestBudgetResolution(t *testing.T) {
	fast := Level{Name: "fast", Attempts: 3}
	cases := []struct {
		name             string
		pol              Policy
		levels           []Level
		level            int
		attempts, helped int
	}{
		{"level default", Fixed(0), []Level{fast}, 0, 3, 0},
		{"Policy.Attempts over the level default", Fixed(5), []Level{fast}, 0, 5, 0},
		{"Policy.Attempts over a zero-budget level", Fixed(5), []Level{{Name: "off"}}, 0, 5, 0},
		{"helping level naming no budget", Fixed(0), []Level{fast, MiddleLevel(0, 0)}, 1, 2, DefaultHelpBudget},
		{"helping level naming its budget", Fixed(5), []Level{fast, MiddleLevel(4, 7)}, 1, 5, 7},
		{"HelpBudget without Help", Fixed(0), []Level{{Name: "l", Attempts: 1, HelpBudget: 7}}, 0, 1, 0},
		{"past the last level", Fixed(5), []Level{fast, MiddleLevel(0, 0)}, 2, 0, 0},
	}
	for _, tc := range cases {
		s := tc.pol.Site("t", 1, tc.levels...)
		if got := s.budget(tc.level); got != tc.attempts {
			t.Errorf("%s: budget(%d) = %d, want %d", tc.name, tc.level, got, tc.attempts)
		}
		if got := s.HelpBudget(tc.level); got != tc.helped {
			t.Errorf("%s: HelpBudget(%d) = %d, want %d", tc.name, tc.level, got, tc.helped)
		}
	}
}

func TestHelpBudgetResolution(t *testing.T) {
	s := Fixed(0).Site("t", 1, Level{Name: "fast", Attempts: 1}, MiddleLevel(0, 0))
	if got := s.HelpBudget(0); got != 0 {
		t.Fatalf("non-helping level budget = %d, want 0", got)
	}
	if got := s.HelpBudget(1); got != DefaultHelpBudget {
		t.Fatalf("default middle budget = %d, want %d", got, DefaultHelpBudget)
	}
	if got := s.HelpBudget(2); got != 0 {
		t.Fatalf("out-of-range level budget = %d, want 0", got)
	}
	if got := Fixed(0).Site("t", 1, MiddleLevel(0, 7)).HelpBudget(0); got != 7 {
		t.Fatalf("declared budget = %d, want 7", got)
	}
	if lv := MiddleLevel(0, 0); lv.Attempts != 2 || lv.Name != "middle" || !lv.Help {
		t.Fatalf("MiddleLevel defaults: %+v", lv)
	}
}

func TestDefersAtDerivedFromShape(t *testing.T) {
	three := Fixed(0).Site("t", 1, Level{Name: "fast", Attempts: 1}, MiddleLevel(0, 0))
	if !three.defersAt(0) {
		t.Fatal("fast above a helping middle must defer")
	}
	if three.defersAt(1) {
		t.Fatal("the helping level itself must not defer (it helps)")
	}
	if three.defersAt(2) {
		t.Fatal("past the last level nothing defers")
	}
	if Fixed(0).Site("t", 1, Level{Name: "fast", Attempts: 1}).defersAt(0) {
		t.Fatal("a two-path shape has no cooperating tier: no deferring")
	}
	noHelp := Fixed(0).Site("t", 1,
		Level{Name: "pto1", Attempts: 1},
		Level{Name: "pto2", Attempts: 1})
	if noHelp.defersAt(0) {
		t.Fatal("a deeper non-helping level must not suppress kills")
	}
}

func TestBackoffSpanBounds(t *testing.T) {
	if BackoffSpan(0, 12345) != 0 {
		t.Fatal("no pending units must mean no span")
	}
	for units := 1; units <= 64; units *= 2 {
		for rnd := uint64(0); rnd < 200; rnd += 17 {
			s := BackoffSpan(units, rnd)
			if s < units/2 || s > units/2+units {
				t.Fatalf("span %d out of [%d,%d] for units=%d", s, units/2, units/2+units, units)
			}
		}
	}
}
