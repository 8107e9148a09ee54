// Package speculate is the shared speculation runtime for every
// PTO-accelerated structure: it owns the retry policy between a prefix
// transaction and its nonblocking fallback, which the paper leaves as a
// per-structure tuning knob (§3.1, §4.2, §4.4) and which Brown's HTM
// template work shows dominates end-to-end performance.
//
// The pieces:
//
//   - Policy is the configuration: attempt budgets, fail-fast on
//     deterministic aborts, and adaptation — exponential backoff on conflict
//     aborts together with glibc-style adaptive disabling driven by a
//     per-site commit-ratio window. Fixed(n) is the bounded attempt loop the
//     runtime structures historically hardcoded, and their default; the
//     modeled figures run simspec.DefaultPolicy() (adaptation, no
//     fail-fast); Adaptive() enables everything.
//
//   - Site is one (structure, operation) call site: the policy bound to the
//     levels of the PTO composition, plus what both substrates record about
//     it — the adaptive windows, the per-level telemetry and the jitter
//     stream of the runtime's backoff.
//
//   - Op is one operation's passage through a Site: it decides whether and
//     when to attempt again and books every outcome. It is a plain value
//     fed (level, outcome) pairs, so both substrates' loops — Run here,
//     over htm transactions and scheduler yields, and simspec.Run, over
//     modeled transactions and cycles — get identical decisions from
//     identical feeds. Run is the loop a structure drives instead of its own:
//
//     r := site.Begin(domain)
//     for r.Next(0) {
//     st := r.Try(func(tx *htm.Tx) { ... })
//     if st == htm.Committed { return ... }
//     }
//     r.Fallback()
//     ... run the original nonblocking algorithm ...
//
//     Begin does not allocate, so the engine adds no per-operation garbage
//     to the hot path.
//
// Retry semantics per abort status:
//
//   - A conflict is transient: the attempt is retried while budget remains,
//     with exponential jittered backoff when Policy.Adapt is set (under
//     contention, retrying immediately re-collides; glibc's lock elision
//     applies the same remedy).
//
//   - Capacity and explicit aborts are deterministic for the observed
//     state. A capacity abort follows the policy: under FailFast it
//     exhausts the level, otherwise it consumes one attempt. An explicit
//     abort (the body bailed out, §2.4) exhausts a plain level and follows
//     the policy like a capacity abort at a RetryExplicit level.
//
// Adaptive disabling: every attempt outcome feeds a sliding window of
// DefaultWindow attempts, kept per (site, lane, level). When a level's window
// closes with a commit ratio below DefaultMinCommitRatio, that level is
// disabled for the next DefaultSkipOps entries — Next hands those to the
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
)

// Policy configures the attempt loop run at every speculation site it is
// handed to. The zero value is the default policy: the site's own attempt
// budgets, no backoff, no adaptation, no telemetry — exactly the behavior
// of the historical hardcoded loops.
type Policy struct {
	// Attempts, when positive, overrides the default attempt budget of
	// every level of every site using this policy.
	Attempts int

	// FailFast skips a level's remaining attempts after a capacity abort,
	// and after an explicit one at a RetryExplicit level: both are
	// deterministic for the observed state, so retrying the identical
	// attempt cannot succeed.
	FailFast bool

	// Adapt makes the site adapt to what its attempts meet. A conflict
	// abort arms exponential jittered backoff before the retry
	// (DefaultBackoffBase/DefaultBackoffMax bound the spin in
	// scheduler-yield units). And when a sliding window of DefaultWindow
	// attempts closes with a commit ratio below DefaultMinCommitRatio, the
	// next DefaultSkipOps operations bypass speculation entirely, then the
	// site re-probes.
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
	return Policy{FailFast: true, Adapt: true}
}

// WithMetrics returns a copy of the policy recording into r.
func (p Policy) WithMetrics(r *telemetry.Registry) Policy {
	p.Metrics = r
	return p
}

// Level describes one speculative tier of a site's PTO composition,
// outermost first (level 0 is the whole-operation prefix transaction).
type Level struct {
	// Name labels the level (e.g. "pto1").
	Name string
	// Attempts is the level's default budget; zero disables the level.
	// Policy.Attempts overrides it when positive.
	Attempts int
	// RetryExplicit makes an explicit abort follow the policy like a
	// capacity abort (exhaust under FailFast, else consume one attempt)
	// instead of exhausting the level: the structures' retry loops whose
	// explicit aborts mean a transient view change set it.
	RetryExplicit bool
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
// policy, the composition's levels with their budgets resolved, the adaptive
// windows (per lane and level), the per-level telemetry, and the jitter
// stream of the runtime's backoff. Immutable after construction
// but for the windows and the jitter stream, so safe to share.
type Site struct {
	pol    Policy
	levels []Level

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
// the modeled machine gives each hardware thread its own. Each level's
// attempt budget is resolved here, to Policy.Attempts when that is
// positive.
func (p Policy) Site(name string, lanes int, levels ...Level) *Site {
	s := &Site{pol: p, levels: make([]Level, len(levels)), win: make([]window, max(lanes, 1)*len(levels))}
	if p.Metrics != nil {
		s.tel = make([]*telemetry.Site, len(levels))
	}
	for i, l := range levels {
		if p.Attempts > 0 {
			l.Attempts = p.Attempts
		}
		s.levels[i] = l
		if p.Metrics == nil {
			continue
		}
		if len(levels) > 1 {
			s.tel[i] = p.Metrics.SiteAt(name+"/"+l.Name, l.Name)
		} else {
			s.tel[i] = p.Metrics.Site(name)
		}
	}
	s.rng.Store(0x9E3779B97F4A7C15)
	return s
}

// Clone returns a site with s's policy, levels and telemetry destinations
// whose adaptive windows and jitter stream start where s's stand and then
// move on their own. The modeled substrate uses it to run many machines from
// one structure built once (simds.SimHash.Clone).
func (s *Site) Clone() *Site {
	c := &Site{pol: s.pol, levels: s.levels, tel: s.tel, win: make([]window, len(s.win))}
	for i := range s.win {
		w, cw := &s.win[i], &c.win[i]
		cw.attempts.Store(w.attempts.Load())
		cw.commits.Store(w.commits.Load())
		cw.skip.Store(w.skip.Load())
	}
	c.rng.Store(s.rng.Load())
	return c
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

// budget returns the attempt budget of the given level; zero past the last.
func (s *Site) budget(level int) int {
	if level >= len(s.levels) {
		return 0
	}
	return s.levels[level].Attempts
}

// exhausts reports whether a capacity or explicit abort at the level ends
// the level instead of consuming one attempt (package doc: "Retry semantics
// per abort status").
func (s *Site) exhausts(level int, out Outcome) bool {
	if out == OutcomeExplicit && !s.levels[level].RetryExplicit {
		return true
	}
	return s.pol.FailFast
}

// Telemetry returns the metric destination of the given level, or nil when
// the policy carries no registry. Out-of-range levels clamp to the nearest
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
	n := len(s.levels)
	if !s.pol.Adapt || level >= n {
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
// and, when the window closes with a commit ratio below
// DefaultMinCommitRatio, disables the level for DefaultSkipOps entries.
func (s *Site) record(lane, level int, committed bool) {
	w := s.windowAt(lane, level)
	if w == nil {
		return
	}
	if committed {
		w.commits.Add(1)
	}
	a := w.attempts.Add(1)
	if a < DefaultWindow {
		return
	}
	c := w.commits.Load()
	// One closer wins the CAS and resets the window; concurrent attempts
	// simply land in the next window.
	if !w.attempts.CompareAndSwap(a, 0) {
		return
	}
	w.commits.Store(0)
	if float64(c) < DefaultMinCommitRatio*float64(a) {
		w.skip.Store(DefaultSkipOps)
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

// Outcome is a transport-neutral attempt result. Each substrate's Run maps
// its status type onto it (htm.Status and sim.Status have the same
// four-way split by construction).
type Outcome uint8

const (
	// OutcomeCommit is a committed attempt.
	OutcomeCommit Outcome = iota
	// OutcomeConflict is a transient data-conflict abort.
	OutcomeConflict
	// OutcomeCapacity is a deterministic footprint-overflow abort.
	OutcomeCapacity
	// OutcomeExplicit is a self-chosen abort from inside the speculative
	// body (§2.4 "don't help under speculation").
	OutcomeExplicit
)

// BackoffSpan converts pending backoff units into a concrete jittered span
// in the caller's wait unit: units/2 plus up to units of jitter, so the
// mean grows linearly with the exponential units while two contenders
// rarely pick the same span. rnd supplies the jitter randomness (Run uses
// the site's xorshift stream, simspec.Run the thread's deterministic Rand).
func BackoffSpan(units int, rnd uint64) int {
	if units <= 0 {
		return 0
	}
	return units/2 + int(rnd%uint64(units+1))
}

// Clock is a driver's time source for the latency histogram: monotonic
// nanoseconds on the runtime, modeled cycles on the simulator.
type Clock interface{ Now() uint64 }

// Op is one operation's passage through a Site on one lane: the attempt
// count and pending backoff of the level it is at, and what booking its
// outcomes needs. Its decisions depend only on the (level, outcome) feed
// and the lane's adaptive window. Both substrates' Run types embed it and add
// only how an attempt runs and how a backoff waits on their substrate. It
// is a value type created by Site.Start; it must not be shared between
// goroutines.
type Op struct {
	s       *Site
	lane    int
	level   int    // the level Next last entered; -1 before the first
	used    int    // attempts consumed at the level
	backoff int    // pending backoff units before the next attempt
	clk     Clock  // nil unless the site records telemetry and the latency is not yet observed
	start   uint64 // clk at Start
}

// Start begins one operation at the site on the given lane. clk is read
// only when the site records telemetry.
func (s *Site) Start(lane int, clk Clock) Op {
	o := Op{s: s, lane: lane, level: -1}
	if len(s.tel) > 0 {
		o.clk, o.start = clk, clk.Now()
	}
	return o
}

// Next reports whether another speculative attempt is allowed at the given
// level (levels are tried outermost-first). Entering a new level resets the
// attempt count and the pending backoff, and consults the lane's
// adaptive-disable state for that level, so an adaptively disabled outer
// tier still lets the operation attempt the inner tiers. It consumes no
// budget itself: budget is spent by Book and Skip.
func (o *Op) Next(level int) bool {
	if level != o.level {
		o.level, o.used, o.backoff = level, 0, 0
		if o.s.disabled(o.lane, level) {
			o.used = o.s.budget(level)
		}
	}
	return o.used < o.s.budget(level)
}

// Skip burns one attempt of the current level without running a
// transaction. Structures use it when per-attempt preparation observed a
// state not worth speculating on (e.g. a flagged node, §2.4).
func (o *Op) Skip() { o.used++ }

// Backoff returns the backoff units owed before the next attempt; the
// Run waits them out in its own unit. Units are owed only before a retry
// that follows a conflict abort at the same level — never before the first
// attempt of a level, and never before the fallback — so every structure
// backs off at the same points.
func (o *Op) Backoff() int { return o.backoff }

// Book records one attempt of the current level: it consumes the attempt,
// advances the conflict backoff (base, doubling to max) or applies the
// level's exhaustion rule, and feeds the lane's adaptive window, the level's
// telemetry and, on a commit, the operation's latency. Drivers call it once
// per attempt they ran.
func (o *Op) Book(out Outcome) {
	o.used++
	switch {
	case out == OutcomeConflict:
		if o.s.pol.Adapt {
			o.backoff = min(max(2*o.backoff, DefaultBackoffBase), DefaultBackoffMax)
		}
	case out != OutcomeCommit && o.s.exhausts(o.level, out):
		o.used = o.s.budget(o.level)
	}
	o.s.record(o.lane, o.level, out == OutcomeCommit)
	if t := o.s.Telemetry(o.level); t != nil {
		t.Attempts.Add(1)
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
// fallback path; the count lands on the innermost level the operation
// reached, the tier the fallback exits. Call it exactly once, where the
// historical loops fell through.
func (o *Op) Fallback() {
	if t := o.s.Telemetry(o.level); t != nil {
		t.Fallbacks.Add(1)
	}
	o.observe()
}

// observe closes the speculative phase in the latency histogram of the
// current level, once.
func (o *Op) observe() {
	if o.clk == nil {
		return
	}
	if now := o.clk.Now(); now >= o.start {
		o.s.Telemetry(o.level).SpecNanos.Observe(now - o.start)
	}
	o.clk = nil
}

// monoBase is the origin of monoClock's readings.
var monoBase = time.Now()

// monoClock is the runtime's Clock: monotonic nanoseconds since monoBase.
// time.Since reads only the monotonic clock, half the cost of time.Now's
// wall and monotonic pair, and a step of the wall clock cannot move it.
type monoClock struct{}

func (monoClock) Now() uint64 { return uint64(time.Since(monoBase)) }

// Run is the wall-clock driver over an Op: attempts are htm transactions
// against the Run's domain, backoff is scheduler yields, latency is
// monotonic nanoseconds, and every goroutine shares the site's one lane.
type Run struct {
	Op
	d *htm.Domain
}

// Begin starts one operation at the site against domain d.
func (s *Site) Begin(d *htm.Domain) Run {
	return Run{Op: s.Start(0, monoClock{}), d: d}
}

// Try runs one speculative attempt of the current level: waits out any
// pending backoff, executes body as a transaction against the Run's
// domain, and books the outcome. The caller is responsible for acting on
// the returned status (returning the operation's result on htm.Committed).
func (r *Run) Try(body func(tx *htm.Tx)) htm.Status {
	if r.backoff > 0 {
		for i := BackoffSpan(r.backoff, r.s.jitter()); i > 0; i-- {
			runtime.Gosched()
		}
	}
	st := r.d.Atomically(body)
	r.Book(outcomeOf(st))
	return st
}

// outcomeOf maps an htm status onto the transport-neutral outcome.
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
