// Package simspec is the simulator-side driver of the shared speculation
// engine: the same policy core (speculate.Core/Walk) that powers the real
// runtime's speculate.Site, re-driven on top of the discrete-event machine
// in internal/sim. Where the wall-clock driver spins scheduler yields and
// runs htm transactions, this driver charges modeled cycles with
// Thread.Work and runs Thread.Atomic attempts; the abort feed is
// sim.Status, whose four-way split maps one-to-one onto the core's
// Outcome. Every simds structure routes its retries through a Site from
// this package instead of a hand-rolled attempt loop, so the A-series
// ablations and the adaptive-policy ablation exercise one policy
// implementation across both substrates.
//
// Determinism: the simulator orders events, not the Go code between them
// (a body runs on from one event until it posts the next, and how far that
// is depends on the structure's code, not on simulated time), so a shared
// mutable adaptive window would tie modeled runs to that incidental order.
// The driver therefore keeps its adaptive state in per-hardware-
// thread lanes (plain, unshared fields), and draws backoff jitter from the
// thread's own deterministic Rand stream. Decision sequences depend only
// on each thread's event history, so simulated runs stay replayable.
// Telemetry counters are shared atomics, but they are write-only during a
// run and their final sums are schedule-independent.
//
// Telemetry: counters use the exact names and meanings of the real
// runtime's (attempts/commits/conflicts/capacity/explicit/fallbacks/
// adaptive_disables/skipped_ops, plus the spec_latency histogram), so one
// dashboard reads both substrates. Two differences are inherent to the
// substrate and documented here: sites are registered per (site, level) —
// "simbst/insert/pto1" — because the simulator can afford the split, and
// the latency histogram buckets hold simulated cycles, not nanoseconds.
package simspec

import (
	"os"
	"sync"

	"repro/internal/sim"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// Backoff unit sizes in modeled cycles. One pending backoff unit of the
// policy core becomes roughly one unit of Work: the jittered span is
// BackoffSpan(units) * unit cycles, reproducing the magnitude of the
// historical hand-rolled backoffs (128..512 cycles doubling per attempt
// for the long form, 24..72 for the short form used by the queues and the
// mound's DCAS).
const (
	// DefaultBackoffCycles is the long backoff unit.
	DefaultBackoffCycles = 256
	// ShortBackoffCycles is the short backoff unit for fine-grained
	// operations whose fallback is itself cheap.
	ShortBackoffCycles = 48
)

// maxThreads mirrors the simulator's hardware thread limit.
const maxThreads = 16

var defaultPolicyOnce = sync.OnceValue(func() speculate.Policy {
	switch os.Getenv("PTO_SIM_POLICY") {
	case "adaptive":
		return speculate.Adaptive()
	case "fixed":
		return speculate.Fixed(0)
	}
	return speculate.Policy{Backoff: true, Adapt: true}
})

// DefaultPolicy is the simulator structures' default tuning: jittered
// exponential backoff after conflict aborts plus per-thread adaptive
// disabling — the successor of the hand-rolled retryBackoff helpers and
// the per-thread throttle the structures used to carry. The environment
// variable PTO_SIM_POLICY overrides it process-wide ("adaptive" selects
// speculate.Adaptive(), "fixed" selects speculate.Fixed(0)); CI uses that
// hook to run the whole simds suite under the adaptive policy without a
// second copy of every test.
func DefaultPolicy() speculate.Policy { return defaultPolicyOnce() }

// laneLevel is one (hardware thread, level) adaptive window. Plain fields:
// each lane is touched only by its own simulated thread.
type laneLevel struct {
	attempts uint64
	commits  uint64
	skip     int64
}

// Site is one named speculation call site on the simulated machine: the
// policy core bound to the operation's level budgets, per-thread adaptive
// lanes, and per-level telemetry. Construct once at structure-build time;
// Begin per operation.
type Site struct {
	name  string
	c     speculate.Core
	unit  uint64
	lanes [maxThreads][]laneLevel
	tel   []*telemetry.Site // per level; nil when the policy has no registry
}

// New binds the policy to one simulated speculation site with the given
// PTO tiers, outermost first. When the policy carries a telemetry
// registry, each level registers its own site, named name for a single
// anonymous level and name/levelName otherwise.
func New(name string, p speculate.Policy, levels ...speculate.Level) *Site {
	s := &Site{name: name, c: p.Core(levels...), unit: DefaultBackoffCycles}
	for i := range s.lanes {
		s.lanes[i] = make([]laneLevel, len(levels))
	}
	if p.Metrics != nil {
		s.tel = make([]*telemetry.Site, len(levels))
		for i, l := range levels {
			n := name
			if len(levels) > 1 || (l.Name != "" && l.Name != "pto") {
				n = name + "/" + l.Name
				// Suffixed (per-level) sites carry the level label so the
				// Prometheus export can aggregate across sites by tier.
				s.tel[i] = p.Metrics.SiteAt(n, l.Name)
				continue
			}
			s.tel[i] = p.Metrics.Site(n)
		}
	}
	return s
}

// WithBackoffUnit sets the modeled cycles charged per backoff unit and
// returns the site.
func (s *Site) WithBackoffUnit(cycles uint64) *Site {
	s.unit = cycles
	return s
}

// Core exposes the bound policy core (tests and budget introspection).
func (s *Site) Core() *speculate.Core { return &s.c }

// Telemetry returns the telemetry site of the given level, or nil when the
// policy carries no registry.
func (s *Site) Telemetry(level int) *telemetry.Site {
	if s.tel == nil || level >= len(s.tel) {
		return nil
	}
	return s.tel[level]
}

// laneDisabled consumes one skip credit of the thread's disable period for
// the level, reporting whether this entry should bypass speculation.
func (s *Site) laneDisabled(t *sim.Thread, level int) bool {
	if !s.c.Adaptive() || level >= len(s.lanes[0]) {
		return false
	}
	w := &s.lanes[t.ID()][level]
	if w.skip > 0 {
		w.skip--
		if tl := s.Telemetry(level); tl != nil {
			tl.Skipped.Add(1)
		}
		return true
	}
	return false
}

// laneRecord feeds one attempt outcome into the thread's window for the
// level, disabling the level on window close when the core's threshold
// fires.
func (s *Site) laneRecord(t *sim.Thread, level int, committed bool) {
	if !s.c.Adaptive() || level >= len(s.lanes[0]) {
		return
	}
	w := &s.lanes[t.ID()][level]
	w.attempts++
	if committed {
		w.commits++
	}
	if w.attempts < s.c.WindowSize() {
		return
	}
	if s.c.ShouldDisable(w.attempts, w.commits) {
		w.skip = s.c.DisableOps()
		if tl := s.Telemetry(level); tl != nil {
			tl.Disables.Add(1)
		}
	}
	w.attempts, w.commits = 0, 0
}

// Run tracks one operation's passage through a site's attempt loop on one
// simulated thread. Value type; create with Begin, do not share.
type Run struct {
	s      *Site
	t      *sim.Thread
	w      speculate.Walk
	start  uint64 // cycle clock at Begin, for the latency histogram
	timing bool
}

// Begin starts one operation at the site on thread t.
func (s *Site) Begin(t *sim.Thread) Run {
	r := Run{s: s, t: t, w: s.c.Begin()}
	if s.tel != nil {
		r.start = t.Now()
		r.timing = true
	}
	return r
}

// Next reports whether another speculative attempt is allowed at the given
// level, mirroring the wall-clock driver: first entry to a level consults
// the thread's adaptive lane, and budget is spent by Try and Skip only.
func (r *Run) Next(level int) bool {
	if r.w.Enter(level) && r.s.laneDisabled(r.t, level) {
		r.w.Disable()
	}
	return r.w.More()
}

// Skip burns one attempt of the current level without running a
// transaction (per-attempt preparation observed a state not worth
// speculating on).
func (r *Run) Skip() { r.w.Skip() }

// Try runs one speculative attempt of the current level: charges any
// pending backoff as modeled Work, executes body with Thread.Atomic, and
// records the outcome in the thread's adaptive lane and the level's
// telemetry. The caller acts on the returned status (returning the
// operation's result on sim.OK).
func (r *Run) Try(body func()) sim.Status {
	s := r.s
	if b := r.w.Backoff(); b > 0 {
		span := speculate.BackoffSpan(b, r.t.Rand())
		// The span is in whole backoff units, but a pause quantized to the
		// unit leaves the simulator's lockstep threads choosing among a
		// handful of identical lengths, so contenders that collided once
		// keep colliding. Add sub-unit jitter at cycle granularity — the
		// desynchronization the hand-rolled retryBackoff helpers provided
		// with their rand()%span term.
		if w := uint64(span)*s.unit + r.t.Rand()%s.unit; w > 0 {
			r.t.Work(w)
		}
	}
	st := r.t.Atomic(body)
	level := r.w.Level()
	r.w.Record(outcomeOf(st))
	s.laneRecord(r.t, level, st == sim.OK)
	if tl := s.Telemetry(level); tl != nil {
		tl.Attempts.Add(1)
		switch st {
		case sim.OK:
			tl.Commits.Add(1)
		case sim.AbortConflict:
			tl.Conflicts.Add(1)
		case sim.AbortCapacity:
			tl.Capacity.Add(1)
		case sim.AbortExplicit:
			tl.Explicit.Add(1)
		}
	}
	if st == sim.OK {
		r.observe(level)
	}
	return st
}

// DrainBackoff charges the backoff owed by the operation's final conflict
// abort, which the shared placement rule would otherwise drop (units are
// owed before retries, never before the fallback). It is an explicit
// opt-in for single-level structures whose fallback contends on the same
// lines the transaction touched: entering such a fallback immediately
// after a conflict aborts the surviving transactions it just collided
// with. Call it between the attempt loop and Fallback; a no-op when
// nothing is pending.
func (r *Run) DrainBackoff() {
	b := r.w.Backoff()
	if b <= 0 {
		return
	}
	span := speculate.BackoffSpan(b, r.t.Rand())
	r.t.Work(uint64(span)*r.s.unit + r.t.Rand()%r.s.unit)
}

// Fallback records that the operation is completing on the nonblocking
// fallback path; the count lands on the innermost level the walk reached.
// Call it exactly once, where the historical loops fell through.
func (r *Run) Fallback() {
	level := r.w.Level()
	if tl := r.s.Telemetry(level); tl != nil {
		tl.Fallbacks.Add(1)
	}
	r.observe(level)
}

// observe closes the speculative phase in the level's latency histogram
// (simulated cycles, not nanoseconds).
func (r *Run) observe(level int) {
	if !r.timing {
		return
	}
	if tl := r.s.Telemetry(level); tl != nil {
		tl.SpecNanos.Observe(r.t.Now() - r.start)
	}
	r.timing = false
}

// outcomeOf maps a sim status onto the core's transport-neutral outcome.
func outcomeOf(st sim.Status) speculate.Outcome {
	switch st {
	case sim.OK:
		return speculate.OutcomeCommit
	case sim.AbortCapacity:
		return speculate.OutcomeCapacity
	case sim.AbortExplicit:
		return speculate.OutcomeExplicit
	default:
		return speculate.OutcomeConflict
	}
}
