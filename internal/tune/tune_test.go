package tune

import (
	"testing"
	"time"

	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// The law tests drive the controller on a fake clock: each Step() is one
// controller tick, and the "workload" between ticks is synthetic counter
// bumps on a private registry — so every action sequence below is exactly
// reproducible.

// feed bumps the site's counters by one interval's worth of activity.
func feed(s *telemetry.Site, attempts, commits, capacity, fallbacks, helped uint64) {
	s.Attempts.Add(attempts)
	s.Commits.Add(commits)
	s.Capacity.Add(capacity)
	s.Fallbacks.Add(fallbacks)
	s.Helped.Add(helped)
}

// fakeBatch is a BatchSetter recording the AIMD trajectory.
type fakeBatch struct {
	k   int
	min int
	max int
	log []int
}

func (b *fakeBatch) BatchK() int { return b.k }
func (b *fakeBatch) SetBatchK(n int) int {
	if n < b.min {
		n = b.min
	}
	if n > b.max {
		n = b.max
	}
	b.k = n
	b.log = append(b.log, n)
	return n
}

// TestLawBatchAIMD: capacity-heavy intervals halve k, clean intervals grow
// it by one, and the trajectory reaches a steady state at the ceiling when
// the capacity pressure ends.
func TestLawBatchAIMD(t *testing.T) {
	r := telemetry.NewRegistry()
	site := r.Site("shard0/txn")
	b := &fakeBatch{k: 16, min: 1, max: 20}
	c := New(Config{Registry: r, Batch: b, MaxBatch: 20})
	// Three capacity-heavy intervals: 16 → 8 → 4 → 2.
	for i := 0; i < 3; i++ {
		feed(site, 1000, 700, 100, 0, 0) // capacity rate 0.1
		if got := c.Step(); got != 1 {
			t.Fatalf("capacity tick %d: %d actions, want 1", i, got)
		}
	}
	if b.k != 2 {
		t.Fatalf("k = %d after MD phase, want 2", b.k)
	}
	// Clean intervals: additive increase to the ceiling, then steady.
	for i := 0; i < 30; i++ {
		feed(site, 1000, 980, 0, 0, 0)
		c.Step()
	}
	if b.k != 20 {
		t.Fatalf("k = %d after AI phase, want ceiling 20", b.k)
	}
	feed(site, 1000, 980, 0, 0, 0)
	if got := c.Step(); got != 0 {
		t.Fatalf("at ceiling: %d actions, want steady state", got)
	}
	want := []int{8, 4, 2, 3, 4, 5}
	for i, w := range want {
		if b.log[i] != w {
			t.Fatalf("trajectory %v..., want %v at step %d", b.log[:len(want)], w, i)
		}
	}
	// Middling interval (commit ratio below GrowRatio, no capacity): hold.
	feed(site, 1000, 500, 0, 0, 0)
	if got := c.Step(); got != 0 || b.k != 20 {
		t.Fatalf("middling interval: actions=%d k=%d, want hold", got, b.k)
	}
}

// TestLawBudgetsCeilingsAndRetune: the budget law shrinks the fast level's
// attempts when its commit ratio collapses, restores them on recovery, and
// steers the middle help budget by rescue value — never exceeding either
// configured ceiling.
func TestLawBudgetsCeilingsAndRetune(t *testing.T) {
	r := telemetry.NewRegistry()
	fast := r.SiteAt("shard0/txn/fast", "fast")
	mid := r.SiteAt("shard0/txn/middle", "middle")
	core := speculate.Fixed(0).Core(
		speculate.Level{Name: "fast", Attempts: 4},
		speculate.MiddleLevel(3, 4),
	)
	a := core.EnableActuation()
	c := New(Config{Registry: r, SitePrefix: "shard0/", Budgets: a})

	// Collapse: fast ratio 0.1 → attempts step 4 → 3 → 2 → 1, then floor.
	for i := 0; i < 5; i++ {
		feed(fast, 1000, 100, 0, 0, 0)
		c.Step()
	}
	if got := a.Attempts(0); got != 1 {
		t.Fatalf("fast attempts = %d after collapse, want floor 1", got)
	}
	// Recovery: ratio 0.95 → restore one per interval up to the static 4.
	for i := 0; i < 10; i++ {
		feed(fast, 1000, 950, 0, 0, 0)
		c.Step()
	}
	if got := a.Attempts(0); got != 4 {
		t.Fatalf("fast attempts = %d after recovery, want ceiling 4", got)
	}
	// Helping with no rescue value: middle burns attempts, helped stays 0
	// → help budget steps 4 → 3 → 2 → 1 → 0 and stays.
	for i := 0; i < 6; i++ {
		feed(fast, 1000, 950, 0, 0, 0)
		feed(mid, 200, 150, 0, 0, 0)
		c.Step()
	}
	if got := a.HelpBudgetAt(1); got != 0 {
		t.Fatalf("help budget = %d after zero-rescue phase, want 0", got)
	}
	// Rescue value returns under fallback pressure: budget climbs back,
	// clamped at the static ceiling 4.
	for i := 0; i < 10; i++ {
		feed(fast, 1000, 700, 0, 50, 0)
		feed(mid, 200, 150, 0, 0, 30)
		c.Step()
	}
	if got := a.HelpBudgetAt(1); got != 4 {
		t.Fatalf("help budget = %d after rescue phase, want ceiling 4", got)
	}
	snap := c.Snapshot()
	if snap.BudgetActions == 0 || len(snap.Budgets) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	for _, l := range snap.Budgets {
		if l.Attempts > l.StaticAttempts || l.HelpBudget > l.StaticHelp {
			t.Fatalf("ceiling exceeded in %+v", l)
		}
	}
}

// TestControllerBackgroundLoop: the wired form — real ticker, real budget
// actuator — actuates on its own and stops cleanly.
func TestControllerBackgroundLoop(t *testing.T) {
	r := telemetry.NewRegistry()
	site := r.Site("bg/txn")
	core := speculate.Fixed(0).Core(speculate.Level{Name: "fast", Attempts: 4})
	a := core.EnableActuation()
	c := New(Config{Registry: r, SitePrefix: "bg/", Budgets: a, Interval: time.Millisecond})
	c.Start()
	defer c.Stop()
	for i := 0; i < 2000; i++ {
		feed(site, 100, 10, 0, 0, 0) // commit ratio 0.1: law C shrinks the budget
		if c.Snapshot().BudgetActions > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("background controller never actuated")
}

// TestStopWithoutStart does not hang.
func TestStopWithoutStart(t *testing.T) {
	c := New(Config{Registry: telemetry.NewRegistry()})
	c.Stop()
	c.Stop()
}

// TestCooldownHysteresis: with Cooldown=2 a law that actuates sits out the
// next two evaluated intervals even under continuous pressure, each law
// cools on its own clock, and idle intervals don't advance a cooldown — all
// on the same fake clock as the other law tests, so the action pattern is
// exact.
func TestCooldownHysteresis(t *testing.T) {
	r := telemetry.NewRegistry()
	site := r.Site("shard0/txn")
	b := &fakeBatch{k: 64, min: 1, max: 64}
	core := speculate.Fixed(0).Core(speculate.Level{Name: "fast", Attempts: 8})
	a := core.EnableActuation()
	c := New(Config{
		Registry: r, SitePrefix: "shard0/", Batch: b, Budgets: a,
		MaxBatch: 64, Cooldown: 2,
	})
	// Capacity-heavy from the first tick (law B), commit collapse from the
	// second (law C): the two laws run one tick out of phase, each on the
	// pattern act, cool, cool.
	feed(site, 1000, 500, 100, 0, 0) // capacity 0.1, commit ratio 0.5
	if got := c.Step(); got != 1 {
		t.Fatalf("tick 0: %d actions, want 1 (batch only)", got)
	}
	pressure := func() { feed(site, 1000, 100, 100, 0, 0) } // capacity 0.1, commit ratio 0.1
	for i, want := range []int{1, 0, 1, 1, 0, 1} {
		pressure()
		if got := c.Step(); got != want {
			t.Fatalf("tick %d: %d actions, want %d", i+1, got, want)
		}
	}
	if b.k != 8 { // 64 → 32 → 16 → 8 at ticks 0, 3, 6: three halvings, not seven
		t.Fatalf("k = %d, want 8 (3 cooled halvings)", b.k)
	}
	if got := a.Attempts(0); got != 6 { // 8 → 7 → 6 at ticks 1, 4
		t.Fatalf("fast attempts = %d, want 6 (2 cooled steps)", got)
	}
	// Idle intervals (below MinOps) never advance a cooldown: law B, which
	// has just actuated, still waits two EVALUATED intervals.
	for i := 0; i < 5; i++ {
		feed(site, 10, 1, 1, 0, 0) // idle: ignored entirely
		if got := c.Step(); got != 0 {
			t.Fatalf("idle tick %d acted (%d)", i, got)
		}
	}
	for i, want := range []int{1, 0, 1} { // budget, nothing, batch
		pressure()
		if got := c.Step(); got != want {
			t.Fatalf("post-idle tick %d: %d actions, want %d", i, got, want)
		}
	}
	snap := c.Snapshot()
	if snap.BatchActions != 4 || snap.BudgetActions != 3 || snap.Actions != 7 {
		t.Fatalf("snapshot = %+v, want 4 batch and 3 budget actions", snap)
	}
}

// TestCooldownZeroIsEveryInterval: the default keeps the historical
// every-tick behavior the trajectory tests pin.
func TestCooldownZeroIsEveryInterval(t *testing.T) {
	r := telemetry.NewRegistry()
	site := r.Site("shard0/txn")
	b := &fakeBatch{k: 16, min: 1, max: 20}
	c := New(Config{Registry: r, Batch: b, MaxBatch: 20})
	for i := 0; i < 3; i++ {
		feed(site, 1000, 700, 100, 0, 0)
		if got := c.Step(); got != 1 {
			t.Fatalf("tick %d: %d actions, want 1 (no cooldown)", i, got)
		}
	}
	if b.k != 2 {
		t.Fatalf("k = %d, want 2", b.k)
	}
}
