// Package txn is the transactional composition layer: it lets a program
// group operations on several PTO structures — or several operations on one
// structure — into a single atomic step, in the style of NBTC (Cai, Wen &
// Scott, PPoPP 2023) lifted onto this repository's PTO substrate.
//
// A composed operation runs as a body against a Ctx and completes on one of
// three paths:
//
//   - Fast path: the whole body executes inside one HTM prefix transaction
//     (htm.Domain.Atomically) driven by a speculate.Site, so every
//     participating structure's reads and writes commit in a single step.
//     This is the PTO idea applied across structure boundaries: the
//     structures must share one Domain (see the NewPTO*In constructors).
//
//   - Fallback publication: when the attempt budget is spent (or the domain
//     has zero capacity — no HTM at all), the body re-runs in capture mode.
//     Reads execute directly and are recorded, with their observed values,
//     in a capture buffer; writes are staged in the same buffer (read-own-
//     writes included) and published by one htm.MultiCAS over the combined
//     read+write footprint. MultiCAS is lock-free with helping, so the
//     fallback preserves the nonblocking progress of the underlying
//     structures: a composed operation can be killed only by a committing
//     transaction, and every kill is paid for by that commit (the Theorem 2
//     analogue — see DESIGN.md).
//
//   - Read-only validation: a captured body that staged no writes commits by
//     htm.MultiValidate — two looks at the versioned lock word of every Var
//     of the read set, the values checked in between, no publication at
//     all — mirroring the cheapness of read-only HTM commits.
//
// Structures participate through small adapter methods (TxContains,
// TxInsert, TxRemove, TxEnqueue, TxDequeue) written once against the Ctx
// accessors Read, Peek, and Write; the same adapter body serves both the
// fast path and capture mode. Adapters follow the paper's §2.4 discipline:
// on the fast path they never help a concurrent operation (they Retry,
// aborting the transaction); in capture mode they may first perform the
// helping the structure's own fallback would do, then Retry to re-run the
// body against the repaired state.
package txn

import (
	"sync"

	"repro/internal/htm"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txnops"
)

// DefaultAttempts is the fast-path retry budget for composed operations.
const DefaultAttempts = 4

// abortRetry is the explicit-abort code used by Ctx.Retry on the fast path.
const abortRetry = 1

// Set is the composable set capability the PTO structures implement
// (bst.PTOTree, hashtable.PTOTable, skiplist.PTOSet, list.PTOSet) — the
// shared txnops contract instantiated for this substrate. All methods must
// be called from inside a Manager.Atomic body, on structures sharing the
// manager's domain.
type Set = txnops.Set[*Ctx, int64]

// Queue is the composable queue capability (msqueue.PTOQueue).
type Queue = txnops.Queue[*Ctx, int64]

// PQ is the composable priority-queue capability (mound.Mound over a PTO
// backend).
type PQ = txnops.PQ[*Ctx, int64]

// Registry is this substrate's registration surface (see txnops.Registry).
type Registry = txnops.Registry[*Ctx, int64]

// Manager runs composed operations against one shared transactional domain.
// Every structure participating in a manager's transactions must be
// constructed in that domain (bst.NewPTOIn, hashtable.NewPTOTableIn,
// skiplist.NewPTOSetIn, msqueue.NewPTOIn); MultiCAS will panic on a
// cross-domain entry set, turning a mis-wired composition into an
// immediate, deterministic failure instead of silent non-atomicity.
type Manager struct {
	d        *htm.Domain
	attempts int
	site     *speculate.Site
	comp     *telemetry.Composed
	reg      Registry

	// pol and siteName are retained so the speculation site can be rebuilt
	// when the level set changes (WithMiddle after WithPolicy or vice
	// versa). middle is the declared helping tier; zero Attempts means the
	// manager runs the classic two-path fast/fallback shape.
	pol      speculate.Policy
	siteName string
	middle   speculate.Level

	// force pins every composed operation straight to the MultiCAS slow
	// path, bypassing speculation entirely — the occupied-fallback
	// adversary of ablation A10. park, when non-nil, is handed to
	// MultiCASParked so each publication yields between its claim phase and
	// its decision (see FallbackPark).
	force bool
	park  func()
}

// New returns a Manager with its own transactional domain. attempts ≤ 0
// selects DefaultAttempts. The manager runs under the default fixed
// speculation policy; use WithPolicy to change it.
func New(attempts int) *Manager {
	return NewIn(htm.NewDomain(0, 0), attempts)
}

// NewIn is New against an existing domain, for callers that configure the
// domain themselves (capacity) before handing it over — e.g. a server shard.
// The caller must not share d with another manager's structures: MultiCAS
// panics on cross-domain entry sets.
func NewIn(d *htm.Domain, attempts int) *Manager {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	m := &Manager{d: d, attempts: attempts}
	m.WithPolicy(speculate.Fixed(0))
	return m
}

// WithPolicy replaces the speculation policy governing the fast-path
// attempt loop. When the policy carries a telemetry registry, the manager
// additionally records into that registry's "txn/atomic" composed site.
// Call before the manager is shared between goroutines. Returns m.
func (m *Manager) WithPolicy(p speculate.Policy) *Manager {
	return m.WithPolicyAt(p, "txn/atomic")
}

// WithPolicyAt is WithPolicy with an explicit telemetry site name, so
// several managers sharing one registry (server shards, A/B experiment
// arms) stay distinguishable: each registers its speculation site and its
// composed site under its own name instead of aggregating into
// "txn/atomic". Call before the manager is shared between goroutines.
// Returns m.
func (m *Manager) WithPolicyAt(p speculate.Policy, site string) *Manager {
	m.pol, m.siteName = p, site
	m.rebuildSite()
	if p.Metrics != nil {
		m.comp = p.Metrics.Composed(site)
	} else {
		m.comp = nil
	}
	return m
}

// rebuildSite re-registers the speculation site from the manager's current
// policy and level set: the fast level alone (the historical two-path
// shape, registered under the site name so existing dashboards are
// untouched), or fast + middle when WithMiddle enabled the helping tier
// (registered per level as name/fast and name/middle with level labels).
func (m *Manager) rebuildSite() {
	levels := []speculate.Level{{Name: "fast", Attempts: m.attempts, RetryExplicit: true}}
	if m.middle.Attempts > 0 {
		levels = append(levels, m.middle)
	}
	m.site = m.pol.Site(m.siteName, 1, levels...)
}

// WithMiddle enables the three-path shape: between the fast level and the
// MultiCAS fallback, composed publication gets a helping middle level whose
// transactions drive undecided fallback descriptors to decision
// (htm.AtomicallyHelping) instead of aborting on or killing them. attempts
// ≤ 0 selects the middle level's default budget; helpBudget ≤ 0 selects
// speculate.DefaultHelpBudget per attempt. Call before the manager is
// shared between goroutines. Returns m.
func (m *Manager) WithMiddle(attempts, helpBudget int) *Manager {
	m.middle = speculate.MiddleLevel(attempts, helpBudget)
	m.rebuildSite()
	return m
}

// ForceFallback, when on, pins every composed operation straight to the
// MultiCAS slow path — no speculation at all. It is the occupied-fallback
// adversary knob of ablation A10: a thread running a force-fallback manager
// keeps undecided descriptors in flight for speculating threads to collide
// with. Call before the manager is shared between goroutines. Returns m.
func (m *Manager) ForceFallback(on bool) *Manager {
	m.force = on
	return m
}

// FallbackPark installs a hook run once per fallback publication, between
// the MultiCAS claim phase and its decision (htm.MultiCASParked): the
// publication sits fully claimed but undecided while f runs. It models a
// fallback publisher preempted mid-protocol — the window in which
// speculating threads actually meet an undecided descriptor, which on a
// single-core host otherwise requires scheduler luck. Pass runtime.Gosched
// for the A10 adversary; nil restores plain MultiCAS. Call before the
// manager is shared between goroutines. Returns m.
func (m *Manager) FallbackPark(f func()) *Manager {
	m.park = f
	return m
}

// Domain exposes the manager's transactional domain, for constructing
// participating structures and for capacity experiments.
func (m *Manager) Domain() *htm.Domain { return m.d }

// Site exposes the manager's speculation site (its level budgets and
// per-level telemetry); its one caller is benchmark/probes.go:488.
// WithPolicy/WithMiddle rebuild the site, so take the handle only after the
// manager is fully configured.
func (m *Manager) Site() *speculate.Site { return m.site }

// Structures is the manager's registration surface: drivers register each
// participating structure once (by capability and name) and enumerate them
// generically. The manager itself holds no per-structure code — the registry
// and the txnops algorithms are the whole composition API.
func (m *Manager) Structures() *Registry { return &m.reg }

// restartSignal is the panic payload Ctx.Retry uses to unwind a capture-mode
// body back to the fallback loop.
type restartSignal struct{}

// Ctx is the context of one composed-operation attempt. It is only valid
// inside the body passed to Atomic/ReadOnly and must not be retained or
// shared between goroutines: one Ctx serves every attempt of a call, reset
// in between, and returns to a pool when the call does.
type Ctx struct {
	htx   *htm.Tx // non-nil on the fast path
	wrote bool
	hooks []func()

	// entries and order are capture mode's combined read/write buffer: one
	// htm.Update per Var touched (keyed by Var id), holding the observed
	// old value and (for writes) the staged new value; order preserves
	// first-touch order for the MultiCAS entry set.
	entries map[uint64]htm.Entry
	order   []htm.Entry
}

var ctxPool = sync.Pool{New: func() any { return &Ctx{entries: make(map[uint64]htm.Entry)} }}

// reset readies c for the call's next attempt (and, cleared of everything
// it could pin, for the pool), keeping capacity.
func (c *Ctx) reset() {
	c.htx, c.wrote = nil, false
	clear(c.hooks)
	c.hooks = c.hooks[:0]
	clear(c.entries)
	clear(c.order)
	c.order = c.order[:0]
}

// stage records u as the capture buffer's entry for the Var with this id.
func (c *Ctx) stage(id uint64, u htm.Entry) {
	c.entries[id] = u
	c.order = append(c.order, u)
}

// Speculative reports whether the body is running inside an HTM fast-path
// transaction. Adapters use it to choose between the §2.4 "abort, don't
// help" discipline (fast path) and helping before a restart (capture mode).
func (c *Ctx) Speculative() bool { return c.htx != nil }

// Retry abandons the current attempt: on the fast path it aborts the
// transaction (AbortExplicit, consuming one attempt of the budget); in
// capture mode it discards the capture buffer and re-runs the body. It does
// not return.
func (c *Ctx) Retry() {
	if c.htx != nil {
		c.htx.Abort(abortRetry)
	}
	panic(restartSignal{})
}

// OnCommit registers f to run once, after the composed operation commits on
// any path. Structures use it for effects that must not run on an aborted
// attempt but need no atomicity with the commit itself (count maintenance,
// post-commit physical unlinking).
func (c *Ctx) OnCommit(f func()) { c.hooks = append(c.hooks, f) }

func (c *Ctx) runHooks() {
	for _, f := range c.hooks {
		f()
	}
}

// Read reads v as part of the composed operation's atomic footprint. On the
// fast path it is a transactional load. In capture mode it returns the
// operation's own staged write if any, otherwise performs a direct load and
// records the observed value in the capture buffer: the commit-time
// MultiCAS (or MultiValidate) re-asserts the value, so the read is
// atomic with the operation's writes.
func Read[T comparable](c *Ctx, v *htm.Var[T]) T {
	if c.htx != nil {
		return htm.Load(c.htx, v)
	}
	if e, ok := c.entries[v.ID()]; ok {
		return e.(*htm.Update[T]).Pending()
	}
	x := htm.Load(nil, v)
	c.stage(v.ID(), htm.NewUpdate(v, x, x))
	return x
}

// Peek reads v without adding it to the validated footprint. On the fast
// path it is an ordinary transactional load (the transaction validates
// everything anyway); in capture mode it is an unrecorded direct load,
// still honoring the operation's own staged writes. Adapters use Peek for
// traversal reads whose correctness is re-established by a narrower
// validation window (the structure's PTO2-style window), keeping the
// MultiCAS footprint — and so its conflict surface and helping cost —
// proportional to the operation's semantics rather than its search path.
func Peek[T comparable](c *Ctx, v *htm.Var[T]) T {
	if c.htx != nil {
		return htm.Load(c.htx, v)
	}
	if e, ok := c.entries[v.ID()]; ok {
		return e.(*htm.Update[T]).Pending()
	}
	return htm.Load(nil, v)
}

// Write stages x as v's new value. On the fast path it is a transactional
// (buffered) store. In capture mode it stages the write in the capture
// buffer — recording the currently observed value as the MultiCAS old value
// if the Var was not previously read — to be published at commit.
func Write[T comparable](c *Ctx, v *htm.Var[T], x T) {
	c.wrote = true
	if c.htx != nil {
		htm.Store(c.htx, v, x)
		return
	}
	if e, ok := c.entries[v.ID()]; ok {
		e.(*htm.Update[T]).SetNew(x)
		return
	}
	c.stage(v.ID(), htm.NewUpdate(v, htm.Load(nil, v), x))
}

// Atomic runs body as one composed atomic operation, retrying until it
// commits. The body may be re-executed any number of times (on fast-path
// aborts and capture restarts) and must therefore be restartable: all
// externally visible effects go through the Ctx accessors and OnCommit.
// Speculation walks every declared level outermost-first — the fast level,
// then the helping middle level when WithMiddle enabled it (Run.Try runs
// middle attempts with the level's helping budget) — before the MultiCAS
// fallback.
func (m *Manager) Atomic(body func(c *Ctx)) {
	c := ctxPool.Get().(*Ctx)
	// A foreign panic out of body unwinds past the Put: that Ctx is dropped.
	m.atomic(c, body)
	c.reset()
	ctxPool.Put(c)
}

func (m *Manager) atomic(c *Ctx, body func(c *Ctx)) {
	if !m.force {
		r := m.site.Begin(m.d)
		for lv := 0; lv < m.site.Levels(); lv++ {
			for r.Next(lv) {
				st := r.Try(func(tx *htm.Tx) {
					c.htx = tx
					body(c)
				})
				if st == htm.Committed {
					c.runHooks()
					if m.comp != nil {
						m.comp.Ops.Add(1)
						if c.wrote {
							m.comp.FastCommits.Add(1)
						} else {
							m.comp.ReadOnlyCommits.Add(1)
						}
					}
					return
				}
				c.reset()
			}
		}
		r.Fallback()
	}
	m.fallback(c, body)
}

// ReadOnly runs body as a composed snapshot: identical to Atomic but the
// body must not Write (it panics if it does). A read-only body commits
// without any publication — a read-only HTM transaction on the fast path,
// a MultiValidate window over the read Vars' own words in the fallback.
func (m *Manager) ReadOnly(body func(c *Ctx)) {
	m.Atomic(func(c *Ctx) {
		body(c)
		if c.wrote {
			panic("txn: ReadOnly body performed a write")
		}
	})
}

// fallback drives the capture/publish loop until the operation commits.
func (m *Manager) fallback(c *Ctx, body func(c *Ctx)) {
	for ; ; c.reset() {
		if !m.runCapture(c, body) {
			if m.comp != nil {
				m.comp.Restarts.Add(1)
			}
			continue
		}
		writes := 0
		for _, e := range c.order {
			if u, ok := e.(interface{ IsWrite() bool }); ok && u.IsWrite() {
				writes++
			}
		}
		if writes == 0 {
			if htm.MultiValidate(c.order...) {
				c.runHooks()
				if m.comp != nil {
					m.comp.Ops.Add(1)
					m.comp.ReadOnlyCommits.Add(1)
				}
				return
			}
			if m.comp != nil {
				m.comp.Restarts.Add(1)
			}
			continue
		}
		if m.comp != nil {
			m.comp.MCASAttempts.Add(1)
			m.comp.Width.Observe(len(c.order))
		}
		// The descriptor keeps the entry slice, and a helper may still be
		// reading it after MultiCAS returns: hand the slice over for good.
		entries := c.order
		c.order = nil
		if htm.MultiCASParked(m.park, entries...) {
			c.runHooks()
			if m.comp != nil {
				m.comp.Ops.Add(1)
				m.comp.FallbackCommits.Add(1)
			}
			return
		}
		if m.comp != nil {
			m.comp.MCASFailures.Add(1)
		}
	}
}

// runCapture executes body in capture mode, reporting false when the body
// requested a restart via Retry.
func (m *Manager) runCapture(c *Ctx, body func(c *Ctx)) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(restartSignal); ok {
				completed = false
				return
			}
			panic(r)
		}
	}()
	body(c)
	return true
}

// Move atomically moves key from src to dst, reporting whether it did; see
// txnops.Move for the semantics (and the conservation invariant).
func Move(m *Manager, src, dst Set, key int64) bool {
	return txnops.Move(m, src, dst, key)
}

// MoveAll atomically moves every key in keys from src to dst in one composed
// operation — one prefix transaction or one N-word MultiCAS for the whole
// batch; see txnops.MoveAll.
func MoveAll(m *Manager, src, dst Set, keys ...int64) int {
	return txnops.MoveAll(m, src, dst, keys...)
}

// Transfer atomically dequeues up to n values from src and enqueues them on
// dst, returning how many moved; see txnops.Transfer.
func Transfer(m *Manager, src, dst Queue, n int) int {
	return txnops.Transfer(m, src, dst, n)
}

// MoveMin atomically pops src's minimum into dst; see txnops.MoveMin.
func MoveMin(m *Manager, src PQ, dst Set) (int64, bool) {
	return txnops.MoveMin(m, src, dst)
}

// MoveToPQ atomically removes key from src and pushes it onto dst; see
// txnops.MoveToPQ.
func MoveToPQ(m *Manager, src Set, dst PQ, key int64) bool {
	return txnops.MoveToPQ(m, src, dst, key)
}
