// core.go is the transport-agnostic half of the speculation engine: the
// attempt/backoff/fail-fast decision machine, extracted so that more than
// one execution substrate can drive it. Two drivers exist today:
//
//   - Run in this package — the wall-clock driver for the real
//     concurrency runtime (internal/htm). Backoff units are scheduler
//     yields, the abort feed is htm.Status, latency is nanoseconds.
//
//   - simspec.Run — the modeled-cycles driver for the discrete-event
//     simulator (internal/sim). Backoff units are simulated cycles charged
//     with Thread.Work, the abort feed is sim.Status from Thread.Atomic,
//     latency is simulated cycles.
//
// Everything that decides *whether* and *when* to attempt again lives here
// (Core, Walk); what is recorded about each decision — adaptive windows,
// telemetry, latency — lives in Site and Op (speculate.go), shared by both
// drivers; only *how* to attempt — run a transaction, wait out a backoff,
// read a clock — lives in the drivers. A Walk is strictly per-operation
// state: it holds no atomics and is never shared, so both drivers get
// identical decision sequences from identical abort feeds. That identity is
// what the cross-driver tests in simspec pin down.
package speculate

// Outcome is a transport-neutral attempt result. The drivers map their
// substrate's status type onto it (htm.Status and sim.Status have the same
// four-way split by construction).
type Outcome uint8

const (
	// OutcomeCommit is a committed attempt.
	OutcomeCommit Outcome = iota
	// OutcomeConflict is a transient data-conflict abort: worth retrying,
	// with backoff under contention.
	OutcomeConflict
	// OutcomeCapacity is a deterministic footprint-overflow abort: the same
	// body will overflow again, so FailFast exhausts the level.
	OutcomeCapacity
	// OutcomeExplicit is a self-chosen abort from inside the speculative
	// body (§2.4 "don't help under speculation"). Whether it burns one
	// attempt or the whole level is Level.OnExplicit's call.
	OutcomeExplicit
)

// Rule says what one deterministic abort kind (capacity or explicit) does
// to the level it happens at: consume one attempt, or exhaust the level.
// Declaring the rules on the Level is what lets a three-level composition
// mix semantics — a fail-fast fast level next to a helping middle level
// whose post-budget explicit aborts merely consume an attempt — where a
// two-level walk applied one global FailFast to every tier.
type Rule uint8

const (
	// RuleDefault, the zero value, is each kind's default: RulePolicy for a
	// capacity abort, RuleExhaust for an explicit one (a body that bailed
	// out will bail out again unless the level says otherwise).
	RuleDefault Rule = iota
	// RuleRetry makes the abort consume one attempt, keeping the level,
	// whatever the policy.
	RuleRetry
	// RuleExhaust makes the abort exhaust the level's remaining budget,
	// whatever the policy.
	RuleExhaust
	// RulePolicy is RuleExhaust under a fail-fast policy and RuleRetry
	// otherwise.
	RulePolicy
)

// Core binds a Policy to one site's level budgets. The declaration is
// immutable after construction and safe to share; per-operation state lives
// in Walk, and cross-operation adaptive state lives in Site (which consults
// ShouldDisable / WindowSize / DisableOps for the thresholds).
type Core struct {
	pol    Policy
	levels []Level
}

// Core binds the policy to a PTO composition's tiers, outermost first.
func (p Policy) Core(levels ...Level) Core {
	return Core{pol: p, levels: levels}
}

// Policy returns the bound policy.
func (c *Core) Policy() Policy { return c.pol }

// Levels returns the bound level descriptors, outermost first.
func (c *Core) Levels() []Level { return c.levels }

// Budget returns the attempt budget of the given level: Policy.Attempts
// when positive, else the level's own default; zero past the last level.
func (c *Core) Budget(level int) int {
	if level >= len(c.levels) {
		return 0
	}
	if c.pol.Attempts > 0 {
		return c.pol.Attempts
	}
	return c.levels[level].Attempts
}

// resolve reduces a declared rule to RuleRetry or RuleExhaust: def stands in
// for RuleDefault, and RulePolicy follows Policy.FailFast.
func (c *Core) resolve(r, def Rule) Rule {
	if r == RuleDefault {
		r = def
	}
	if r == RulePolicy {
		if c.pol.FailFast {
			return RuleExhaust
		}
		return RuleRetry
	}
	return r
}

// capacityRule resolves the level's capacity-abort rule (default
// RulePolicy: capacity is deterministic for the footprint, so a fail-fast
// policy stops trying).
func (c *Core) capacityRule(level int) Rule {
	var r Rule
	if level < len(c.levels) {
		r = c.levels[level].OnCapacity
	}
	return c.resolve(r, RulePolicy)
}

// explicitRule resolves the level's explicit-abort rule (default
// RuleExhaust).
func (c *Core) explicitRule(level int) Rule {
	var r Rule
	if level < len(c.levels) {
		r = c.levels[level].OnExplicit
	}
	return c.resolve(r, RuleExhaust)
}

// HelpBudget returns how many in-flight fallback descriptors one attempt at
// the level may help to decision before aborting explicitly: zero for
// non-helping levels, the level's declared budget (or DefaultHelpBudget)
// for helping ones. The drivers thread it into their substrate's
// transaction machinery; the core only declares it.
func (c *Core) HelpBudget(level int) int {
	if level >= len(c.levels) || !c.levels[level].Help {
		return 0
	}
	if c.levels[level].HelpBudget > 0 {
		return c.levels[level].HelpBudget
	}
	return DefaultHelpBudget
}

// DefersAt reports whether attempts at the given level should defer to a
// helping tier on encountering an undecided fallback descriptor: true
// exactly when some deeper level of the composition declares Help. A
// deferring attempt aborts — leaving the descriptor alive for the helping
// tier to drive to decision — where a level with no helping tier below it
// applies the historical kill-paid-by-commit rule instead. The capability
// is derived from the declared shape rather than declared per level so a
// site cannot accidentally strand a descriptor: kills are suppressed only
// when a cooperating tier is guaranteed to follow.
func (c *Core) DefersAt(level int) bool {
	for i := level + 1; i < len(c.levels); i++ {
		if c.levels[i].Help {
			return true
		}
	}
	return false
}

// Adaptive reports whether the policy adapts at all; Site skips its window
// accounting entirely when it is off.
func (c *Core) Adaptive() bool { return c.pol.Adapt }

// WindowSize is the adaptation window, in attempts.
func (c *Core) WindowSize() uint64 { return DefaultWindow }

// DisableOps is the length of a disable period, in level entries.
func (c *Core) DisableOps() int64 { return DefaultSkipOps }

// ShouldDisable is the adaptation threshold: given a closed window of
// attempts observations of which commits committed, it reports whether the
// level should be disabled for the next DisableOps entries.
func (c *Core) ShouldDisable(attempts, commits uint64) bool {
	return float64(commits) < DefaultMinCommitRatio*float64(attempts)
}

// BackoffSpan converts pending backoff units into a concrete jittered span
// in the driver's wait unit: units/2 plus up to units of jitter, so the
// mean grows linearly with the exponential units while two contenders
// rarely pick the same span. rnd supplies the jitter randomness (the
// wall-clock driver uses the site's xorshift stream, the sim driver the
// thread's deterministic Rand).
func BackoffSpan(units int, rnd uint64) int {
	if units <= 0 {
		return 0
	}
	return units/2 + int(rnd%uint64(units+1))
}

// Walk is one operation's passage through a Core's attempt loop: the
// per-operation half of what used to be Run. It is a plain value — no
// atomics, no clock, no transaction handle — so the decision sequence it
// produces depends only on the (level, outcome) feed it is given.
//
// Driver protocol, per operation:
//
//	w := core.Begin()
//	for level := 0; ; level++ {
//	    if w.Enter(level) && driverSaysDisabled(level) { w.Disable() }
//	    for w.More() {
//	        wait out w.Backoff() units; run one attempt
//	        w.Record(outcome)
//	    }
//	}
//	// budgets exhausted at every level: fallback
type Walk struct {
	c       *Core
	level   int
	entered bool // the current level was entered (its disable gate ran)
	skipped bool // the current level is disabled for this operation
	used    int  // attempts consumed at the current level
	backoff int  // pending backoff units before the next attempt
}

// Begin starts one operation's walk.
func (c *Core) Begin() Walk { return Walk{c: c} }

// Enter positions the walk at the given level, resetting the per-level
// attempt count, backoff, and disable flag when the level changes. It
// returns true exactly when that reset happened (first entry to the level),
// which is the driver's cue to evaluate its adaptive-disable gate and call
// Disable if the gate fires.
func (w *Walk) Enter(level int) bool {
	if level == w.level && w.entered {
		return false
	}
	w.level = level
	w.entered = true
	w.used = 0
	w.backoff = 0
	w.skipped = false
	return true
}

// Level returns the level the walk is positioned at.
func (w *Walk) Level() int { return w.level }

// Disable marks the current level adaptively disabled for this operation;
// More then reports false until the walk enters another level.
func (w *Walk) Disable() { w.skipped = true }

// More reports whether another attempt is allowed at the current level.
func (w *Walk) More() bool {
	if w.skipped {
		return false
	}
	return w.used < w.c.Budget(w.level)
}

// Skip burns one attempt without an outcome (per-attempt preparation
// observed a state not worth speculating on).
func (w *Walk) Skip() { w.used++ }

// Backoff returns the pending backoff in abstract units. Units are owed
// only before a retry that follows a conflict abort at the same level —
// never before the first attempt of a level, and never before the
// fallback. The drivers convert units to a concrete span with BackoffSpan
// and their own notion of time; the placement itself is decided here so
// every structure backs off at the same points.
func (w *Walk) Backoff() int { return w.backoff }

// Record consumes one attempt with the given outcome: it advances the
// conflict-backoff progression (base, doubling to max) and applies the
// level's resolved capacity- and explicit-abort exhaustion rules (see Rule;
// the resolution is per level, so a three-tier composition can mix
// fail-fast and retrying tiers).
func (w *Walk) Record(o Outcome) {
	w.used++
	switch o {
	case OutcomeConflict:
		if w.c.pol.Backoff {
			if w.backoff == 0 {
				w.backoff = DefaultBackoffBase
			} else if w.backoff < DefaultBackoffMax {
				w.backoff *= 2
			}
		}
	case OutcomeCapacity:
		if w.c.capacityRule(w.level) == RuleExhaust {
			w.used = w.c.Budget(w.level) // deterministic: exhaust the level
		}
	case OutcomeExplicit:
		if w.c.explicitRule(w.level) == RuleExhaust {
			w.used = w.c.Budget(w.level)
		}
	}
}
