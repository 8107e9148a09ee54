package speculate

import (
	"fmt"
	"testing"
)

// trace drives one walk over a scripted feed and records every decision
// point: the backoff owed before each attempt, the outcome fed, and where
// the walk stopped. Levels are tried outermost-first; each level consumes
// feed entries until the walk refuses more attempts.
func trace(c Core, feed []Outcome) []string {
	var out []string
	w := c.Begin()
	i := 0
	for level := 0; level < len(c.Levels()); level++ {
		w.Enter(level)
		for w.More() {
			if i >= len(feed) {
				out = append(out, fmt.Sprintf("L%d:feed-exhausted", level))
				return out
			}
			o := feed[i]
			i++
			out = append(out, fmt.Sprintf("L%d:backoff=%d:%v", level, w.Backoff(), o))
			w.Record(o)
			if o == OutcomeCommit {
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
			t.Fatalf("decision %d: got %q want %q (full: %v)", i, got[i], got[i], got)
		}
	}
}

func TestWalkDecisionTables(t *testing.T) {
	one := Level{Name: "pto", Attempts: 3, OnExplicit: RulePolicy}
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
			name: "failfast overrides RetryOnExplicit",
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
			// Per-level rules: a middle level under a fail-fast policy keeps
			// retrying explicit aborts (its OnExplicit pins RuleRetry) while
			// the fail-fast fast level ahead of it exhausts immediately —
			// semantics the old global FailFast could not express.
			name: "per-level OnExplicit overrides failfast",
			pol:  Adaptive(), levels: []Level{one, MiddleLevel(3, 0)},
			feed: []Outcome{OutcomeExplicit, OutcomeExplicit, OutcomeExplicit, OutcomeCommit},
			want: []string{
				"L0:backoff=0:explicit",
				"L1:backoff=0:explicit", "L1:backoff=0:explicit",
				"L1:backoff=0:commit", "commit",
			},
		},
		{
			// The middle level's OnCapacity pins RuleExhaust even when the
			// policy is not fail-fast: the footprint overflows again no
			// matter how much helping happens.
			name: "per-level OnCapacity exhausts without failfast",
			pol:  Fixed(0), levels: []Level{MiddleLevel(3, 0), one},
			feed: []Outcome{OutcomeCapacity, OutcomeCommit},
			want: []string{"L0:backoff=0:capacity", "L1:backoff=0:commit", "commit"},
		},
		{
			// RuleRetry keeps the level on an explicit abort whatever the
			// policy.
			name: "RuleRetry overrides no-retry level and failfast",
			pol:  Policy{FailFast: true}, levels: []Level{{Name: "m", Attempts: 2, OnExplicit: RuleRetry}},
			feed: []Outcome{OutcomeExplicit, OutcomeExplicit},
			want: []string{"L0:backoff=0:explicit", "L0:backoff=0:explicit", "fallback"},
		},
		{
			// RuleExhaust pins fail-fast capacity semantics on one level of
			// an otherwise lenient policy.
			name: "RuleExhaust forces capacity failfast per level",
			pol:  Fixed(0), levels: []Level{{Name: "ff", Attempts: 3, OnCapacity: RuleExhaust}, one},
			feed: []Outcome{OutcomeCapacity, OutcomeCommit},
			want: []string{"L0:backoff=0:capacity", "L1:backoff=0:commit", "commit"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.pol.Core(tc.levels...)
			eq(t, trace(c, tc.feed), tc.want)
		})
	}
}

func TestWalkBackoffCap(t *testing.T) {
	pol := Policy{Attempts: 32, Backoff: true}
	c := pol.Core(Level{Name: "l", Attempts: 1})
	w := c.Begin()
	w.Enter(0)
	var seq []int
	for i := 0; i < 10; i++ {
		seq = append(seq, w.Backoff())
		w.Record(OutcomeConflict)
	}
	want := []int{0, 1, 2, 4, 8, 16, 32, DefaultBackoffMax, DefaultBackoffMax, DefaultBackoffMax}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("backoff progression %v, want %v", seq, want)
		}
	}
}

func TestWalkDisableGate(t *testing.T) {
	c := Fixed(0).Core(Level{Name: "a", Attempts: 2}, Level{Name: "b", Attempts: 2})
	w := c.Begin()
	if !w.Enter(0) {
		t.Fatal("first Enter must report a fresh level")
	}
	w.Disable()
	if w.More() {
		t.Fatal("disabled level must refuse attempts")
	}
	if w.Enter(0) {
		t.Fatal("re-Enter of the same level must not reset")
	}
	if !w.Enter(1) || !w.More() {
		t.Fatal("next level must be attemptable after a disable")
	}
}

func TestWalkSkipBurnsBudget(t *testing.T) {
	c := Fixed(0).Core(Level{Name: "a", Attempts: 2})
	w := c.Begin()
	w.Enter(0)
	w.Skip()
	w.Skip()
	if w.More() {
		t.Fatal("Skip must consume budget")
	}
}

func TestShouldDisableThreshold(t *testing.T) {
	c := Adaptive().Core(Level{Name: "l", Attempts: 1})
	// Defaults: window 64, min ratio 0.2 → the boundary sits at 12.8 commits.
	if !c.ShouldDisable(64, 12) {
		t.Fatal("12/64 commits must disable")
	}
	if c.ShouldDisable(64, 13) {
		t.Fatal("13/64 commits must stay enabled")
	}
	if c.WindowSize() != DefaultWindow || c.DisableOps() != DefaultSkipOps {
		t.Fatal("default window resolution changed")
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
		c := tc.pol.Core(tc.levels...)
		if got := c.Budget(tc.level); got != tc.attempts {
			t.Errorf("%s: Budget(%d) = %d, want %d", tc.name, tc.level, got, tc.attempts)
		}
		if got := c.HelpBudget(tc.level); got != tc.helped {
			t.Errorf("%s: HelpBudget(%d) = %d, want %d", tc.name, tc.level, got, tc.helped)
		}
	}
}

func TestHelpBudgetResolution(t *testing.T) {
	c := Fixed(0).Core(Level{Name: "fast", Attempts: 1}, MiddleLevel(0, 0))
	if got := c.HelpBudget(0); got != 0 {
		t.Fatalf("non-helping level budget = %d, want 0", got)
	}
	if got := c.HelpBudget(1); got != DefaultHelpBudget {
		t.Fatalf("default middle budget = %d, want %d", got, DefaultHelpBudget)
	}
	if got := c.HelpBudget(2); got != 0 {
		t.Fatalf("out-of-range level budget = %d, want 0", got)
	}
	c2 := Fixed(0).Core(MiddleLevel(0, 7))
	if got := c2.HelpBudget(0); got != 7 {
		t.Fatalf("declared budget = %d, want 7", got)
	}
	if lv := MiddleLevel(0, 0); lv.Attempts != 2 || lv.Name != "middle" || !lv.Help {
		t.Fatalf("MiddleLevel defaults: %+v", lv)
	}
}

func TestDefersAtDerivedFromShape(t *testing.T) {
	three := Fixed(0).Core(Level{Name: "fast", Attempts: 1}, MiddleLevel(0, 0))
	if !three.DefersAt(0) {
		t.Fatal("fast above a helping middle must defer")
	}
	if three.DefersAt(1) {
		t.Fatal("the helping level itself must not defer (it helps)")
	}
	if three.DefersAt(2) {
		t.Fatal("past the last level nothing defers")
	}
	two := Fixed(0).Core(Level{Name: "fast", Attempts: 1})
	if two.DefersAt(0) {
		t.Fatal("a two-path shape has no cooperating tier: no deferring")
	}
	noHelp := Fixed(0).Core(
		Level{Name: "pto1", Attempts: 1},
		Level{Name: "pto2", Attempts: 1})
	if noHelp.DefersAt(0) {
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
