// Package simtxn is the simulated twin of internal/txn: the transactional
// composition layer (NBTC-style Move/Transfer/ReadOnly over PTO structures)
// rebuilt on the discrete-event machine of internal/sim, so composed
// operations can be costed in modeled cycles next to the per-structure
// figures. The fast path and the fallback mirror the real layer's:
//
//   - Fast path: the whole body runs inside one modeled prefix transaction
//     (sim.Thread.Atomic), driven by the same speculation engine as every
//     simds structure — a simspec.Site, the shared speculate.Site with one
//     adaptive-window lane per hardware thread — so attempt
//     budgets, conflict backoff, and adaptive disabling follow whatever
//     speculate.Policy the Manager carries.
//
//   - Fallback publication: the body re-runs in capture mode. Reads execute
//     directly and are recorded with their observed word; writes are staged
//     (read-own-writes included); commit publishes the combined footprint
//     with one modeled MultiCAS — a word-granularity descriptor protocol in
//     simulated memory (the Harris-Fraser shape the Mound's DCAS fallback
//     already uses, generalized to N words). The MultiCAS is lock-free with
//     helping, so the composed fallback keeps the nonblocking progress of
//     the structures it composes.
//
//   - Read-only validation: a captured body that staged no writes commits
//     through the same MultiCAS with every entry a no-op (old == new): the
//     claim pass locks and re-asserts each read word, modeling the
//     validation window of the real layer's MultiValidate.
//
// Structures participate through adapter methods written against Ctx.Read /
// Ctx.Peek / Ctx.Write (see simds' txnadapt.go). Two conventions make the
// word-granularity MultiCAS sound:
//
//   - Marker bit: an in-flight MultiCAS parks markerBit|descriptor in each
//     claimed word. Every word an adapter Reads or Writes must therefore
//     keep bit 63 clear in its legitimate values; words whose values may use
//     the full range (key sentinels like the BST's ^uint64(0)) may only be
//     read with PeekRaw, which skips the marker check — sound exactly
//     because such words are never Read or Written, so no MultiCAS ever
//     claims them.
//
//   - Closed world: while composed operations run, every mutation of the
//     participating structures goes through the composition layer. The
//     adapters rely on this the way the real layer relies on shared
//     domains: no structure-private descriptor protocol runs concurrently,
//     so a marked word always denotes a composed MultiCAS.
package simtxn

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
	"repro/internal/txnops"
)

// DefaultAttempts is the fast-path retry budget for composed operations,
// matching txn.DefaultAttempts.
const DefaultAttempts = 4

// abortRetry is the explicit-abort code used by Ctx.Retry on the fast path.
const abortRetry = 1

// markerBit flags a word claimed by an in-flight MultiCAS descriptor.
const markerBit = uint64(1) << 63

// Set is the composable set capability the simulated structures implement
// (simds.SimBST, simds.SimHash, simds.SimSkip) — the shared txnops contract
// instantiated for this substrate. All methods must be called from inside a
// Manager.Atomic or Manager.ReadOnly body.
type Set = txnops.Set[*Ctx, uint64]

// Queue is the composable queue capability (simds.SimMSQueue).
type Queue = txnops.Queue[*Ctx, uint64]

// PQ is the composable priority-queue capability.
type PQ = txnops.PQ[*Ctx, uint64]

// Registry is this substrate's registration surface (see txnops.Registry).
type Registry = txnops.Registry[*Ctx, uint64]

// Manager runs composed operations. Unlike the real layer there is no
// domain to share — the simulated machine's strong atomicity covers all of
// simulated memory — so the only configuration is the speculation policy
// and the fallback forcing used by the A8 ablation.
type Manager struct {
	attempts int
	force    bool
	readCap  int
	writeCap int
	site     *simspec.Site
	reg      Registry

	// pol is retained so the site can be rebuilt when the level set
	// changes; middle is the declared helping tier (zero Attempts = the
	// classic two-path fast/fallback shape).
	pol    speculate.Policy
	middle speculate.Level

	// nbtc switches the fallback's publication to the commit-time batch
	// (nbtc.go); nbtcStats counts its outcomes.
	nbtc      bool
	nbtcStats nbtcCounters
}

// New returns a Manager; attempts ≤ 0 selects DefaultAttempts. The manager
// runs under simspec.DefaultPolicy; use WithPolicy to change it.
func New(attempts int) *Manager {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	m := &Manager{attempts: attempts}
	return m.WithPolicy(simspec.DefaultPolicy())
}

// WithPolicy replaces the speculation policy governing the fast-path
// attempt loop. Retry's explicit abort is a transient condition (a marked
// word, a racing window), so the level retries on explicit. Set before use.
func (m *Manager) WithPolicy(p speculate.Policy) *Manager {
	m.pol = p
	m.rebuildSite()
	return m
}

// rebuildSite re-registers the speculation site from the manager's current
// policy and level set (fast alone, or fast + middle after WithMiddle).
func (m *Manager) rebuildSite() {
	levels := []speculate.Level{{Name: "fast", Attempts: m.attempts, RetryExplicit: true}}
	if m.middle.Attempts > 0 {
		levels = append(levels, m.middle)
	}
	m.site = simspec.New("simtxn/atomic", m.pol, levels...)
}

// WithMiddle enables the three-path shape on the modeled substrate: between
// the fast level and the MultiCAS fallback, composed publication gets a
// helping middle level. A middle attempt that trips on a marked word still
// aborts — buffered stores cannot help a descriptor whose owner is actively
// driving the same words — but records the claiming descriptor, and the
// level loop helps it to decision non-transactionally between attempts (up
// to helpBudget descriptors per level walk) before retrying. This is the
// modeled twin of the runtime's pre-lock commit pass: the helping work runs
// on the requesting thread and accrues its modeled cycles, which is the
// simulator's helping-cost model, and the helped descriptor's operation
// completes instead of being deferred behind the speculator's fallback.
// attempts/helpBudget ≤ 0 select the defaults. Set before use. Returns m.
func (m *Manager) WithMiddle(attempts, helpBudget int) *Manager {
	m.middle = speculate.MiddleLevel(attempts, helpBudget)
	m.rebuildSite()
	return m
}

// ForceFallback makes every composed operation skip the fast path and run
// the capture/MultiCAS pipeline — the modeled analogue of zeroing the HTM
// domain's capacity in the real layer (ablation A8's fallback arm).
func (m *Manager) ForceFallback(on bool) *Manager {
	m.force = on
	return m
}

// WithCaps installs modeled read- and write-set capacity limits for the
// fast path, in distinct words touched. A fast-path attempt whose footprint
// exceeds a cap aborts with sim.AbortCapacity, mirroring htm.SetCapacity:
// 0 leaves that set machine-limited (no modeled cap), a negative cap models
// zero capacity (the first footprint access aborts). Capacity aborts are
// deterministic, so a too-big body burns its attempt budget and lands on
// the capture/MultiCAS fallback — the knob the A8 footprint sweep turns.
// Set before use.
func (m *Manager) WithCaps(readCap, writeCap int) *Manager {
	m.readCap, m.writeCap = readCap, writeCap
	return m
}

// Structures is the manager's registration surface: drivers register each
// participating simulated structure once and enumerate them generically. The
// manager holds no per-structure code.
func (m *Manager) Structures() *Registry { return &m.reg }

// Bound is a Manager bound to one simulated thread. It satisfies the shared
// txnops.Exec contract — the simulated twin of txn.Manager's Atomic — so the
// generic composition algorithms run unchanged on this substrate.
type Bound struct {
	m *Manager
	t *sim.Thread
}

// On binds the manager to t for use as a txnops.Exec.
func (m *Manager) On(t *sim.Thread) Bound { return Bound{m: m, t: t} }

// Atomic runs body as one composed atomic operation on the bound thread.
func (b Bound) Atomic(body func(c *Ctx)) { b.m.Atomic(b.t, body) }

// ReadOnly runs body as a composed snapshot on the bound thread.
func (b Bound) ReadOnly(body func(c *Ctx)) { b.m.ReadOnly(b.t, body) }

// restartSignal unwinds a capture-mode body back to the fallback loop.
type restartSignal struct{}

// entry is one captured word: the observed old value and the staged new
// value (equal for pure reads).
type entry struct {
	addr     sim.Addr
	old, new uint64
	write    bool
}

// Ctx is the context of one composed-operation attempt. It is only valid
// inside the body passed to Atomic/ReadOnly and must not be retained.
type Ctx struct {
	t        *sim.Thread
	fast     bool
	ents     []entry
	idx      map[sim.Addr]int
	wrote    bool
	hooks    []func()
	readCap  int // modeled read-set cap (fast path; 0 = machine-limited)
	writeCap int // modeled write-set cap (fast path; 0 = machine-limited)
	rset     map[sim.Addr]struct{}
	wset     map[sim.Addr]struct{}

	// helpBudget and pend are the middle level's helping handshake: a
	// fast-path attempt always aborts on a marked word (§2.4 — a buffered
	// helping store could never commit while the descriptor's owner is
	// re-reading the claimed words), but an attempt running with a positive
	// budget records the claiming descriptor in pend so the level loop can
	// help it to decision BETWEEN attempts, non-transactionally, before
	// retrying. Budget 0 — the fast level — records nothing: the abort is
	// the historical abort-and-defer.
	helpBudget int
	pend       sim.Addr
}

// Thread returns the simulated thread the attempt runs on, for adapters
// that allocate private memory or draw thread-local nonces.
func (c *Ctx) Thread() *sim.Thread { return c.t }

// Speculative reports whether the body is running inside a fast-path
// transaction. Adapters use it to choose between the §2.4 "abort, don't
// help" discipline (fast path) and helping before a restart (capture mode).
func (c *Ctx) Speculative() bool { return c.fast }

// Retry abandons the current attempt: on the fast path it aborts the
// transaction (consuming one attempt of the budget); in capture mode it
// discards the capture buffer and re-runs the body. It does not return.
func (c *Ctx) Retry() {
	if c.fast {
		c.t.TxAbort(abortRetry)
	}
	panic(restartSignal{})
}

// OnCommit registers f to run once, after the composed operation commits on
// any path.
func (c *Ctx) OnCommit(f func()) { c.hooks = append(c.hooks, f) }

func (c *Ctx) runHooks() {
	for _, f := range c.hooks {
		f()
	}
}

// chargeRead charges a against the modeled read-set cap. Every fast-path
// load occupies read capacity regardless of validation semantics, just as a
// real HTM read set holds every line the transaction touched.
func (c *Ctx) chargeRead(a sim.Addr) {
	if c.readCap == 0 {
		return
	}
	if c.readCap < 0 {
		c.t.TxAbortCapacity()
	}
	if _, ok := c.rset[a]; ok {
		return
	}
	if c.rset == nil {
		c.rset = make(map[sim.Addr]struct{}, c.readCap)
	}
	if len(c.rset) >= c.readCap {
		c.t.TxAbortCapacity()
	}
	c.rset[a] = struct{}{}
}

// chargeWrite charges a against the modeled write-set cap.
func (c *Ctx) chargeWrite(a sim.Addr) {
	if c.writeCap == 0 {
		return
	}
	if c.writeCap < 0 {
		c.t.TxAbortCapacity()
	}
	if _, ok := c.wset[a]; ok {
		return
	}
	if c.wset == nil {
		c.wset = make(map[sim.Addr]struct{}, c.writeCap)
	}
	if len(c.wset) >= c.writeCap {
		c.t.TxAbortCapacity()
	}
	c.wset[a] = struct{}{}
}

// Read reads the word at a as part of the operation's validated footprint.
// On the fast path it is a transactional load that aborts on a marked word
// (an in-flight fallback MultiCAS: do not help under speculation). In
// capture mode it returns the operation's own staged write if any,
// otherwise performs a direct marker-resolving load and records the
// observed word; the commit-time MultiCAS re-asserts it.
func (c *Ctx) Read(a sim.Addr) uint64 {
	if c.fast {
		c.chargeRead(a)
		w := c.t.Load(a)
		if w&markerBit != 0 {
			w = c.txResolve(a, w)
		}
		return w
	}
	if i, ok := c.idx[a]; ok {
		return c.ents[i].new
	}
	w := resolve(c.t, a)
	c.idx[a] = len(c.ents)
	c.ents = append(c.ents, entry{addr: a, old: w, new: w})
	return w
}

// Peek reads the word at a without adding it to the validated footprint
// (own staged writes still honored). Adapters use Peek for traversal reads
// whose correctness is re-established by a narrower validation window, and
// for words whose legitimate values may carry bit 63.
func (c *Ctx) Peek(a sim.Addr) uint64 {
	if c.fast {
		c.chargeRead(a)
		w := c.t.Load(a)
		if w&markerBit != 0 {
			w = c.txResolve(a, w)
		}
		return w
	}
	if i, ok := c.idx[a]; ok {
		return c.ents[i].new
	}
	return resolve(c.t, a)
}

// PeekRaw reads the word at a with no marker interpretation: a plain
// (transactional on the fast path, direct in capture mode) unrecorded load.
// It is the only accessor safe for words whose legitimate values may carry
// bit 63 — key words with full-range sentinels, user-value payloads — and is
// sound only for words outside the MultiCAS universe: words no adapter ever
// Reads or Writes, so no descriptor ever claims them.
func (c *Ctx) PeekRaw(a sim.Addr) uint64 {
	if c.fast {
		c.chargeRead(a)
		return c.t.Load(a)
	}
	if i, ok := c.idx[a]; ok {
		return c.ents[i].new
	}
	return c.t.Load(a)
}

// Write stages x as the word at a's new value. On the fast path it is a
// transactional (buffered) store. In capture mode it stages the write —
// recording the currently observed word as the MultiCAS old value if a was
// not previously read — to be published at commit.
func (c *Ctx) Write(a sim.Addr, x uint64) {
	c.wrote = true
	if c.fast {
		c.chargeWrite(a)
		c.t.Store(a, x)
		return
	}
	if i, ok := c.idx[a]; ok {
		c.ents[i].new = x
		c.ents[i].write = true
		return
	}
	w := resolve(c.t, a)
	c.idx[a] = len(c.ents)
	c.ents = append(c.ents, entry{addr: a, old: w, new: x, write: true})
}

// txResolve is the fast-path marked-word handler: the attempt aborts
// explicitly — §2.4's "don't help under speculation" holds on this substrate
// too, because a buffered helping store can never win against the
// descriptor's owner actively driving the same words — but an attempt
// running at a helping level (positive budget) first records the claiming
// descriptor so the level loop in Atomic can help it to decision between
// attempts. Helping a descriptor that has meanwhile been decided is safe:
// descriptors are never freed and help is idempotent past the decision
// point.
func (c *Ctx) txResolve(a sim.Addr, w uint64) uint64 {
	if c.helpBudget > 0 {
		c.pend = sim.Addr(w &^ markerBit)
	}
	c.t.TxAbort(abortRetry)
	panic("unreachable")
}

// resolve loads the word at a, helping any MultiCAS that has it claimed
// until an unmarked value is visible (capture mode may help; §2.4 forbids
// it only under speculation).
func resolve(t *sim.Thread, a sim.Addr) uint64 {
	for {
		w := t.Load(a)
		if w&markerBit == 0 {
			return w
		}
		help(t, sim.Addr(w&^markerBit))
	}
}

// Atomic runs body as one composed atomic operation, retrying until it
// commits. The body may be re-executed any number of times (fast-path
// aborts, capture restarts, MultiCAS failures) and must be restartable:
// all externally visible effects go through the Ctx accessors and OnCommit.
func (m *Manager) Atomic(t *sim.Thread, body func(c *Ctx)) {
	if !m.force {
		r := m.site.Begin(t)
		for lv := 0; lv < m.site.Levels(); lv++ {
			hb := m.site.HelpBudget(lv)
			helped := 0
			for r.Next(lv) {
				c := &Ctx{t: t, fast: true, readCap: m.readCap, writeCap: m.writeCap, helpBudget: hb - helped}
				if r.Try(func() { body(c) }) == sim.OK {
					c.runHooks()
					return
				}
				// A helping-level attempt that aborted on a marked word
				// recorded the claiming descriptor: drive it to decision
				// here, outside any transaction, then retry. The budget
				// bounds the helping across the whole level walk.
				if c.pend != 0 && helped < hb {
					help(t, c.pend)
					helped++
					if tl := m.site.Telemetry(lv); tl != nil {
						tl.Helped.Add(1)
					}
				}
			}
		}
		r.Fallback()
	}
	m.fallback(t, body)
}

// ReadOnly runs body as a composed snapshot: identical to Atomic but the
// body must not Write (it panics if it does). A non-writing capture commits
// through an all-no-op MultiCAS — pure validation, no values change.
func (m *Manager) ReadOnly(t *sim.Thread, body func(c *Ctx)) {
	m.Atomic(t, func(c *Ctx) {
		body(c)
		if c.wrote {
			panic("simtxn: ReadOnly body performed a write")
		}
	})
}

// fallback drives the capture/publish loop until the operation commits.
func (m *Manager) fallback(t *sim.Thread, body func(c *Ctx)) {
	for {
		c := &Ctx{t: t, idx: make(map[sim.Addr]int, 8)}
		if !runCapture(c, body) {
			continue
		}
		if len(c.ents) == 0 {
			c.runHooks() // touched nothing: trivially atomic
			return
		}
		// Claim in ascending address order so concurrent MultiCASes meet
		// head-on instead of deadlocking into mutual helping cycles.
		sort.Slice(c.ents, func(i, j int) bool { return c.ents[i].addr < c.ents[j].addr })
		if m.nbtc {
			switch m.nbtcPublish(t, c.ents) {
			case nbtcCommitted:
				c.runHooks()
				return
			case nbtcMismatch:
				continue // stale footprint: re-capture
			}
			// Unfit for hardware: publish through the classic MultiCAS.
		}
		if mcas(t, c.ents) {
			c.runHooks()
			return
		}
	}
}

// runCapture executes body in capture mode, reporting false when the body
// requested a restart via Retry.
func runCapture(c *Ctx, body func(c *Ctx)) (completed bool) {
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

// MultiCAS descriptor layout in simulated memory:
// +0 status, +1 count, then (addr, old, new) triples.
const (
	mcStatus  = 0
	mcCount   = 1
	mcTriples = 2
)

const (
	mcUndecided = 0
	mcSucceeded = 1
	mcFailed    = 2
)

// mcas publishes the entries (pre-sorted by address) atomically, reporting
// success. Entries with old == new are validation-only: they are claimed
// and re-asserted like writes, then restored. The descriptor lives in
// thread-local simulated memory and is deliberately never freed — helpers
// may still be reading it after the outcome is decided, and the machine's
// addresses are never reused anyway (the real layer parks this problem on
// its epoch reclaimer).
func mcas(t *sim.Thread, ents []entry) bool {
	d := t.AllocLocal(mcTriples + 3*len(ents))
	t.Store(d+mcStatus, mcUndecided)
	t.Store(d+mcCount, uint64(len(ents)))
	for i, e := range ents {
		t.Store(d+mcTriples+sim.Addr(3*i), uint64(e.addr))
		t.Store(d+mcTriples+sim.Addr(3*i)+1, e.old)
		t.Store(d+mcTriples+sim.Addr(3*i)+2, e.new)
	}
	t.Fence() // publish the descriptor before installing markers
	help(t, d)
	return t.Load(d+mcStatus) == mcSucceeded
}

// help drives the MultiCAS descriptor at d to completion: claim every word
// (helping other descriptors met along the way), decide, then release each
// claimed word to its new value (success) or old value (failure).
func help(t *sim.Thread, d sim.Addr) {
	marker := uint64(d) | markerBit
	count := int(t.Load(d + mcCount))
claim:
	for i := 0; i < count; i++ {
		a := sim.Addr(t.Load(d + mcTriples + sim.Addr(3*i)))
		old := t.Load(d + mcTriples + sim.Addr(3*i) + 1)
		for {
			if t.Load(d+mcStatus) != mcUndecided {
				break claim // decided: stop claiming
			}
			w := t.Load(a)
			if w == marker {
				break // already claimed (by us or a helper)
			}
			if w&markerBit != 0 {
				help(t, sim.Addr(w&^markerBit))
				continue
			}
			if w != old {
				t.CAS(d+mcStatus, mcUndecided, mcFailed)
				break claim
			}
			if t.CAS(a, old, marker) {
				break
			}
		}
	}
	t.CAS(d+mcStatus, mcUndecided, mcSucceeded)
	final := t.Load(d+mcStatus) == mcSucceeded
	for i := 0; i < count; i++ {
		a := sim.Addr(t.Load(d + mcTriples + sim.Addr(3*i)))
		w := t.Load(a)
		if w == marker {
			v := t.Load(d + mcTriples + sim.Addr(3*i) + 1)
			if final {
				v = t.Load(d + mcTriples + sim.Addr(3*i) + 2)
			}
			t.CAS(a, marker, v)
		}
	}
}

// Move atomically moves key from src to dst, reporting whether it did; see
// txnops.Move for the semantics (and the conservation invariant).
func Move(m *Manager, t *sim.Thread, src, dst Set, key uint64) bool {
	return txnops.Move(m.On(t), src, dst, key)
}

// MoveAll atomically moves every key in keys from src to dst in one composed
// operation — one modeled prefix transaction or one N-word MultiCAS for the
// whole batch; see txnops.MoveAll.
func MoveAll(m *Manager, t *sim.Thread, src, dst Set, keys ...uint64) int {
	return txnops.MoveAll(m.On(t), src, dst, keys...)
}

// Transfer atomically dequeues up to n values from src and enqueues them on
// dst, returning how many moved; see txnops.Transfer.
func Transfer(m *Manager, t *sim.Thread, src, dst Queue, n int) int {
	return txnops.Transfer(m.On(t), src, dst, n)
}

// MoveMin atomically pops src's minimum into dst; see txnops.MoveMin.
func MoveMin(m *Manager, t *sim.Thread, src PQ, dst Set) (uint64, bool) {
	return txnops.MoveMin(m.On(t), src, dst)
}

// MoveToPQ atomically removes key from src and pushes it onto dst; see
// txnops.MoveToPQ.
func MoveToPQ(m *Manager, t *sim.Thread, src Set, dst PQ, key uint64) bool {
	return txnops.MoveToPQ(m.On(t), src, dst, key)
}
