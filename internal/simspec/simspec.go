// Package simspec is the simulator-side driver of the shared speculation
// engine: the same speculate.Site that powers the real runtime's attempt
// loops — decisions, adaptive windows, telemetry — re-driven on top of the
// discrete-event machine in internal/sim. Where the wall-clock driver spins
// scheduler yields and runs htm transactions, this driver charges modeled
// cycles with Thread.Work and runs Thread.Atomic attempts; the abort feed
// is sim.Status, whose four-way split maps one-to-one onto
// speculate.Outcome. Every simds structure routes its retries through a
// Site from this package instead of a hand-rolled attempt loop, so the
// A-series ablations and the adaptive-policy ablation exercise one policy
// implementation across both substrates.
//
// Determinism: the simulator orders events, not the Go code between them
// (a body runs on from one event until it posts the next, and how far that
// is depends on the structure's code, not on simulated time), so a shared
// mutable adaptive window would tie modeled runs to that incidental order.
// The driver therefore gives each hardware thread its own lane of adaptive
// windows (lane = Thread.ID()) and draws backoff jitter from the thread's
// own deterministic Rand stream. Decision sequences depend only on each
// thread's event history, so simulated runs stay replayable. Telemetry
// counters are shared, but they are write-only during a run and their final
// sums are schedule-independent.
//
// Telemetry is the runtime's, site names and counters alike, so one
// dashboard reads both substrates; only the latency histogram's unit
// differs (simulated cycles, not nanoseconds).
package simspec

import (
	"repro/internal/sim"
	"repro/internal/speculate"
)

// Backoff unit sizes in modeled cycles. One pending backoff unit of a
// speculate.Op becomes roughly one unit of Work: the jittered span is
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

// DefaultPolicy is the simulator structures' default tuning: jittered
// exponential backoff after conflict aborts plus per-thread adaptive
// disabling — the successor of the hand-rolled retryBackoff helpers and
// the per-thread throttle the structures used to carry. Tests that cover
// the structures under another policy take it as table input.
func DefaultPolicy() speculate.Policy { return speculate.Policy{Backoff: true, Adapt: true} }

// Site is one named speculation call site on the simulated machine: a
// speculate.Site with one lane per hardware thread, plus the modeled cycles
// one backoff unit costs. Construct once at structure-build time; Begin per
// operation.
type Site struct {
	*speculate.Site
	unit uint64
}

// New binds the policy to one simulated speculation site with the given
// PTO tiers, outermost first.
func New(name string, p speculate.Policy, levels ...speculate.Level) *Site {
	return &Site{Site: p.Site(name, maxThreads, levels...), unit: DefaultBackoffCycles}
}

// WithBackoffUnit sets the modeled cycles charged per backoff unit and
// returns the site.
func (s *Site) WithBackoffUnit(cycles uint64) *Site {
	s.unit = cycles
	return s
}

// Run tracks one operation's passage through a site's attempt loop on one
// simulated thread. Value type; create with Begin, do not share.
type Run struct {
	speculate.Op
	t    *sim.Thread
	unit uint64
}

// Begin starts one operation at the site on thread t, in t's lane.
func (s *Site) Begin(t *sim.Thread) Run {
	return Run{Op: s.Start(t.ID(), t), t: t, unit: s.unit}
}

// Try runs one speculative attempt of the current level: charges any
// pending backoff as modeled Work, executes body with Thread.Atomic, and
// books the outcome. The caller acts on the returned status (returning the
// operation's result on sim.OK).
func (r *Run) Try(body func()) sim.Status {
	if b := r.Backoff(); b > 0 {
		if w := r.backoffCycles(b); w > 0 {
			r.t.Work(w)
		}
	}
	st := r.t.Atomic(body)
	r.Book(outcomeOf(st), 0)
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
	if b := r.Backoff(); b > 0 {
		r.t.Work(r.backoffCycles(b))
	}
}

// backoffCycles converts b pending units into a pause in modeled cycles.
// The span is in whole backoff units, but a pause quantized to the unit
// leaves the simulator's lockstep threads choosing among a handful of
// identical lengths, so contenders that collided once keep colliding. The
// sub-unit jitter at cycle granularity is the desynchronization the
// hand-rolled retryBackoff helpers provided with their rand()%span term.
func (r *Run) backoffCycles(b int) uint64 {
	return uint64(speculate.BackoffSpan(b, r.t.Rand()))*r.unit + r.t.Rand()%r.unit
}

// outcomeOf maps a sim status onto the transport-neutral outcome.
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
