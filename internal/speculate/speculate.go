// Package speculate is the shared speculation runtime for every
// PTO-accelerated structure: it owns the retry policy between a prefix
// transaction and its nonblocking fallback, which the paper leaves as a
// per-structure tuning knob (§3.1, §4.2, §4.4) and which Brown's HTM
// template work shows dominates end-to-end performance.
//
// The pieces:
//
//   - Policy is the configuration: attempt budgets, exponential backoff on
//     conflict aborts, fail-fast on deterministic aborts, and glibc-style
//     adaptive disabling driven by a per-site commit-ratio window. Fixed(n)
//     reproduces the bounded attempt loops the structures historically
//     hardcoded — bit-for-bit, so the paper's figures are unchanged by
//     default — while Adaptive() enables the full runtime.
//
//   - Site is the per-(structure, operation) instantiation of a Policy: the
//     level budgets of the PTO composition and the record-keeping both
//     substrates share — the adaptive windows, the per-level telemetry and
//     the booking of every attempt, fallback and latency.
//
//   - Run is the per-operation iterator a structure drives instead of its
//     own for-loop:
//
//     r := site.Begin(domain)
//     for r.Next(0) {
//     st := r.Try(func(tx *htm.Tx) { ... })
//     if st == htm.Committed { return ... }
//     }
//     r.Fallback()
//     ... run the original nonblocking algorithm ...
//
//     Run is a value type: Begin does not allocate, so the engine adds no
//     per-operation garbage to the hot path.
//
// Retry semantics per htm abort status:
//
//   - AbortConflict is transient: the attempt is retried while budget
//     remains, with exponential jittered backoff when Policy.Backoff is set
//     (under contention, retrying immediately re-collides; glibc's lock
//     elision applies the same remedy).
//
//   - AbortCapacity is deterministic for a given footprint: the same body
//     will overflow again. Under FailFast the remaining attempts of the
//     level are skipped and control moves to the next (smaller) level or
//     the fallback immediately.
//
//   - AbortExplicit means the speculative body itself chose to bail out
//     (observed state it would have to help resolve, §2.4). Each Level
//     declares (OnExplicit) whether that exhausts the level — the default —
//     or merely consumes an attempt, always or unless the policy is
//     fail-fast.
//
// Adaptive disabling: every attempt outcome feeds a sliding window of
// DefaultWindow attempts, kept per (site, lane, level). When a level's window
// closes with a commit ratio below DefaultMinCommitRatio, that level is
// disabled for the next DefaultSkipOps operations — Next hands those to the
// next level or the fallback — then re-probes with a fresh window. This is
// the glibc lock-elision adaptation scheme applied per PTO tier, so a BST
// whose whole-operation PTO1 transactions keep overflowing capacity can stop
// attempting PTO1 while its small PTO2 postfix transactions keep committing.
package speculate

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/htm"
	"repro/internal/telemetry"
)

// Defaults for the adaptive policy.
const (
	// DefaultWindow is the number of attempts per adaptation window.
	DefaultWindow = 64
	// DefaultMinCommitRatio is the commit ratio below which a closing
	// window disables speculation.
	DefaultMinCommitRatio = 0.2
	// DefaultSkipOps is how many operations run non-speculatively after an
	// adaptive disable, before the site re-probes.
	DefaultSkipOps = 256
	// DefaultBackoffBase and DefaultBackoffMax bound the exponential
	// backoff, in scheduler-yield units.
	DefaultBackoffBase = 1
	DefaultBackoffMax  = 64
	// DefaultHelpBudget is how many undecided fallback descriptors one
	// attempt at a helping (middle) level may drive to decision before the
	// attempt aborts explicitly and hands the operation on.
	DefaultHelpBudget = 4
)

// Policy configures the attempt loop run at every speculation site it is
// handed to. The zero value is the default policy: the site's own attempt
// budgets, no backoff, no adaptation, no telemetry — exactly the behavior
// of the historical hardcoded loops.
type Policy struct {
	// Attempts, when positive, overrides the default attempt budget of
	// every level of every site using this policy.
	Attempts int

	// Backoff enables exponential jittered backoff before retrying a
	// conflict-aborted attempt; DefaultBackoffBase/DefaultBackoffMax bound
	// the spin in scheduler-yield units.
	Backoff bool

	// FailFast skips a level's remaining attempts after a capacity or
	// explicit abort: both are deterministic for the observed state, so
	// retrying the identical attempt cannot succeed.
	FailFast bool

	// Adapt enables per-site adaptive disabling: when a sliding window of
	// DefaultWindow attempts closes with a commit ratio below
	// DefaultMinCommitRatio, the next DefaultSkipOps operations bypass
	// speculation entirely, then the site re-probes.
	Adapt bool

	// Metrics, when non-nil, is the registry sites record into. Leave nil
	// to keep the hot path free of telemetry entirely.
	Metrics *telemetry.Registry
}

// Fixed returns the static policy: up to attempts tries per level (≤ 0
// keeps each site's own default budgets), no backoff, no adaptation. This
// reproduces the historical behavior of every structure's private loop.
func Fixed(attempts int) Policy { return Policy{Attempts: attempts} }

// Adaptive returns the full adaptive policy with package defaults: jittered
// conflict backoff, fail-fast on deterministic aborts, and commit-ratio
// driven disabling.
func Adaptive() Policy {
	return Policy{Backoff: true, FailFast: true, Adapt: true}
}

// WithMetrics returns a copy of the policy recording into r.
func (p Policy) WithMetrics(r *telemetry.Registry) Policy {
	p.Metrics = r
	return p
}

// Level describes one speculative tier of a site's PTO composition,
// outermost first (level 0 is the whole-operation prefix transaction).
// Beyond its attempt budget, a Level declares its capabilities: whether an
// attempt may cooperate with in-flight fallback descriptors (Help, the
// three-path template's middle tier) and how deterministic aborts resolve
// at this tier (OnCapacity/OnExplicit).
type Level struct {
	// Name labels the level (e.g. "pto1").
	Name string
	// Attempts is the level's default budget; zero disables the level.
	// Policy.Attempts overrides it when positive.
	Attempts int
	// Help marks the level as a cooperating (middle) tier: an attempt that
	// encounters an undecided fallback descriptor helps it to decision
	// inside the transaction — up to HelpBudget descriptors, then the
	// attempt aborts explicitly — instead of the fast path's immediate
	// abort-and-defer.
	Help bool
	// HelpBudget bounds the helping per attempt; zero selects
	// DefaultHelpBudget. Ignored unless Help is set.
	HelpBudget int
	// OnCapacity and OnExplicit say whether a capacity or an explicit
	// abort consumes one attempt or exhausts the level (see Rule). Left
	// zero, capacity follows the policy (RulePolicy) and an explicit abort
	// exhausts the level; the structures' retry loops that treat an
	// explicit abort like any other set OnExplicit to RulePolicy.
	OnCapacity Rule
	OnExplicit Rule
}

// MiddleLevel returns the canonical helping middle tier of a three-path
// composition: attempts tries (≤ 0 selects 2), each allowed to drive up to
// helpBudget undecided descriptors to decision (≤ 0 selects
// DefaultHelpBudget). Capacity aborts exhaust the level — the footprint
// will overflow again, helping or not — while explicit aborts (the budget
// ran out mid-attempt, so the helping made real progress) merely consume an
// attempt even under a fail-fast policy.
func MiddleLevel(attempts, helpBudget int) Level {
	if attempts <= 0 {
		attempts = 2
	}
	return Level{
		Name:       "middle",
		Attempts:   attempts,
		Help:       true,
		HelpBudget: helpBudget,
		OnCapacity: RuleExhaust,
		OnExplicit: RuleRetry,
	}
}

// window is one (lane, level) adaptive window: attempts/commits fill the
// current window; skip counts down the level entries remaining in a disable
// period. On a lane shared by goroutines the counters are racy by design —
// adjacent windows may bleed a few attempts into each other — which only
// perturbs *when* adaptation triggers, never correctness. A lane touched by
// one simulated thread only sees its own sequence, so it stays replayable.
type window struct {
	attempts atomic.Uint64
	commits  atomic.Uint64
	skip     atomic.Int64
}

// Site is one named speculation call site, shared by every driver: the
// policy Core bound to the operation's level budgets, the adaptive windows
// (per lane and level), the per-level telemetry, and the jitter stream of
// the wall-clock driver's backoff.
type Site struct {
	c Core

	// tel holds one metric destination per level (empty when the policy has
	// no registry). A single-level site registers under the site name alone;
	// a multi-level site registers one telemetry site per tier as
	// name/levelName with the level label set, so per-level
	// attempt/commit/helped counters survive aggregation.
	tel []*telemetry.Site

	// win holds one adaptive window per (lane, level), lane-major, so each
	// tier of the PTO composition disables and re-probes independently.
	win []window

	// rng seeds the wall-clock driver's backoff jitter.
	rng atomic.Uint64
}

// Site binds the policy to one speculation site with the PTO composition's
// tiers, outermost first. name keys the site's telemetry (shared across
// instances registering the same name). lanes is the number of independent
// adaptive-window sets: the runtime shares one lane between goroutines,
// the modeled machine gives each hardware thread its own.
func (p Policy) Site(name string, lanes int, levels ...Level) *Site {
	s := &Site{c: p.Core(levels...), win: make([]window, max(lanes, 1)*len(levels))}
	if p.Metrics != nil {
		s.tel = make([]*telemetry.Site, len(levels))
		for i, l := range levels {
			if len(levels) > 1 {
				s.tel[i] = p.Metrics.SiteAt(name+"/"+l.Name, l.Name)
			} else {
				s.tel[i] = p.Metrics.Site(name)
			}
		}
	}
	s.rng.Store(0x9E3779B97F4A7C15)
	return s
}

// NewSite is Site with one lane.
// Kept only because benchmark/probes.go:193 passes nil for the deleted speculate.Stats argument.
func (p Policy) NewSite(name string, _ *struct{}, levels ...Level) *Site {
	return p.Site(name, 1, levels...)
}

// Actuator is an empty type and Site.Actuator returns nil.
// Kept only because benchmark/probes.go:488 passes it to tune.Config.
type Actuator struct{}

func (s *Site) Actuator() *Actuator { return nil }

// Core returns the site's bound decision core (read-only: level
// descriptors, resolved budgets). Drivers that run the walk themselves —
// txn's composed publication loop iterates levels explicitly — consult it
// for level count and per-level helping budgets.
func (s *Site) Core() *Core { return &s.c }

// Telemetry returns the metric destination of the given level, or nil when
// the policy carries no registry. Out-of-range levels clamp to the last
// registered site, so fallback accounting recorded at the innermost level
// always lands somewhere.
func (s *Site) Telemetry(level int) *telemetry.Site {
	if len(s.tel) == 0 {
		return nil
	}
	return s.tel[min(max(level, 0), len(s.tel)-1)]
}

// windowAt returns the lane's adaptive window of the level, or nil when the
// policy does not adapt or the level is past the composition.
func (s *Site) windowAt(lane, level int) *window {
	n := len(s.c.levels)
	if !s.c.Adaptive() || level >= n {
		return nil
	}
	return &s.win[lane*n+level]
}

// disabled consumes one skip credit of the lane's disable period for the
// level, reporting whether this entry to the level should bypass
// speculation.
func (s *Site) disabled(lane, level int) bool {
	w := s.windowAt(lane, level)
	if w == nil || w.skip.Load() <= 0 || w.skip.Add(-1) < 0 {
		return false
	}
	if t := s.Telemetry(level); t != nil {
		t.Skipped.Add(1)
	}
	return true
}

// record feeds one attempt outcome into the lane's window for the level
// and, on window close, disables the level if the core's threshold says the
// commit ratio fell too low.
func (s *Site) record(lane, level int, committed bool) {
	w := s.windowAt(lane, level)
	if w == nil {
		return
	}
	if committed {
		w.commits.Add(1)
	}
	a := w.attempts.Add(1)
	if a < s.c.WindowSize() {
		return
	}
	c := w.commits.Load()
	// One closer wins the CAS and resets the window; concurrent attempts
	// simply land in the next window.
	if !w.attempts.CompareAndSwap(a, 0) {
		return
	}
	w.commits.Store(0)
	if s.c.ShouldDisable(a, c) {
		w.skip.Store(s.c.DisableOps())
		if t := s.Telemetry(level); t != nil {
			t.Disables.Add(1)
		}
	}
}

// jitter advances the site's xorshift state and returns a pseudo-random
// value for backoff jitter.
func (s *Site) jitter() uint64 {
	x := s.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// Clock is a driver's time source for the latency histogram: wall
// nanoseconds on the runtime, modeled cycles on the simulator.
type Clock interface{ Now() uint64 }

// Op is one operation's passage through a Site on one lane: the Walk that
// decides (core.go) plus what booking its outcomes needs. Both drivers' Run
// types embed it and add only how an attempt runs and how a backoff waits
// on their substrate. It is a value type created by Site.Start; it must not
// be shared between goroutines.
type Op struct {
	s      *Site
	w      Walk
	lane   int
	clk    Clock
	start  uint64 // clk at Start; meaningful only while timing
	timing bool
}

// Start begins one operation at the site on the given lane. clk is read
// only when the site records telemetry.
func (s *Site) Start(lane int, clk Clock) Op {
	o := Op{s: s, w: s.c.Begin(), lane: lane, clk: clk}
	if len(s.tel) > 0 {
		o.start, o.timing = clk.Now(), true
	}
	return o
}

// Next reports whether another speculative attempt is allowed at the given
// level (levels are tried outermost-first; moving to a new level resets the
// attempt count). On first entry to a level it consults the lane's
// adaptive-disable state for that level, so an adaptively disabled outer
// tier still lets the operation attempt the inner tiers. It consumes no
// budget itself: budget is spent by Book and Skip.
func (o *Op) Next(level int) bool {
	if o.w.Enter(level) && o.s.disabled(o.lane, level) {
		o.w.Disable()
	}
	return o.w.More()
}

// Skip burns one attempt of the current level without running a
// transaction. Structures use it when per-attempt preparation observed a
// state not worth speculating on (e.g. a flagged node, §2.4).
func (o *Op) Skip() { o.w.Skip() }

// Backoff returns the backoff units owed before the next attempt; the
// driver waits them out in its own unit.
func (o *Op) Backoff() int { return o.w.Backoff() }

// Book records one attempt of the current level: the walk's decision, the
// lane's adaptive window, the level's telemetry (helped counts the fallback
// descriptors the attempt drove to decision) and, on a commit, the
// operation's latency. Drivers call it once per attempt they ran.
func (o *Op) Book(out Outcome, helped int) {
	level := o.w.Level()
	o.w.Record(out)
	o.s.record(o.lane, level, out == OutcomeCommit)
	if t := o.s.Telemetry(level); t != nil {
		t.Attempts.Add(1)
		if helped > 0 {
			t.Helped.Add(uint64(helped))
		}
		switch out {
		case OutcomeCommit:
			t.Commits.Add(1)
		case OutcomeConflict:
			t.Conflicts.Add(1)
		case OutcomeCapacity:
			t.Capacity.Add(1)
		case OutcomeExplicit:
			t.Explicit.Add(1)
		}
	}
	if out == OutcomeCommit {
		o.observe()
	}
}

// Fallback records that the operation is completing on the nonblocking
// fallback path; the count lands on the innermost level the walk reached,
// the tier the fallback exits. Call it exactly once, where the historical
// loops fell through.
func (o *Op) Fallback() {
	if t := o.s.Telemetry(o.w.Level()); t != nil {
		t.Fallbacks.Add(1)
	}
	o.observe()
}

// observe closes the speculative phase in the latency histogram of the
// current level.
func (o *Op) observe() {
	if !o.timing {
		return
	}
	o.timing = false
	if now := o.clk.Now(); now >= o.start {
		o.s.Telemetry(o.w.Level()).SpecNanos.Observe(now - o.start)
	}
}

// wallClock is the runtime's Clock: wall-clock nanoseconds.
type wallClock struct{}

func (wallClock) Now() uint64 { return uint64(time.Now().UnixNano()) }

// Run is the wall-clock driver over an Op: attempts are htm transactions
// against the Run's domain, backoff is scheduler yields, latency is
// nanoseconds, and every goroutine shares the site's one lane.
type Run struct {
	Op
	d *htm.Domain
}

// Begin starts one operation at the site against domain d.
func (s *Site) Begin(d *htm.Domain) Run {
	return Run{Op: s.Start(0, wallClock{}), d: d}
}

// Try runs one speculative attempt of the current level: waits out any
// pending backoff, executes body as a transaction against the Run's
// domain, and books the outcome. At a helping level the transaction carries
// the level's helping budget (htm.AtomicallyHelping): undecided MultiCAS
// descriptors its writes collide with are helped to decision at commit
// instead of killing the attempt or the descriptor. At a non-helping level
// with a helping tier below it (Core.DefersAt) the attempt defers instead
// (htm.AtomicallyDeferring): an undecided descriptor on the write set
// aborts the attempt explicitly, leaving the descriptor alive for the
// middle tier. Only a level with no cooperating tier beneath it applies the
// historical kill-paid-by-commit rule. The caller is responsible for acting
// on the returned status (returning the operation's result on
// htm.Committed).
func (r *Run) Try(body func(tx *htm.Tx)) htm.Status {
	if b := r.w.Backoff(); b > 0 {
		for i := BackoffSpan(b, r.s.jitter()); i > 0; i-- {
			runtime.Gosched()
		}
	}
	level := r.w.Level()
	var st htm.Status
	var helped int
	if hb := r.s.c.HelpBudget(level); hb > 0 {
		st, helped = r.d.AtomicallyHelping(hb, body)
	} else if r.s.c.DefersAt(level) {
		st = r.d.AtomicallyDeferring(body)
	} else {
		st = r.d.Atomically(body)
	}
	r.Book(outcomeOf(st), helped)
	return st
}

// outcomeOf maps an htm status onto the core's transport-neutral outcome.
func outcomeOf(st htm.Status) Outcome {
	switch st {
	case htm.Committed:
		return OutcomeCommit
	case htm.AbortCapacity:
		return OutcomeCapacity
	case htm.AbortExplicit:
		return OutcomeExplicit
	default:
		return OutcomeConflict
	}
}
