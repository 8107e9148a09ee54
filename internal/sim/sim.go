// Package sim is a deterministic discrete-event simulator of a small
// multicore with best-effort hardware transactional memory, standing in for
// the paper's testbed (an Intel i7-4770 with RTM) per the substitution rule
// in DESIGN.md §1.
//
// The machine executes one memory event at a time, always the one belonging
// to the runnable thread with the smallest cycle clock (ties broken by
// thread id), so a run is a total order of events and is reproducible
// bit-for-bit. Each event is charged cycles by a single calibrated cost
// model (cost.go): cache hits and misses through a MESI-like directory,
// cache-to-cache transfers, CAS and fence premiums, allocator bookkeeping on
// shared metadata lines, and HTM boundary instructions.
//
// The HTM is best-effort with requester-wins conflict detection, as on
// Haswell: any foreign access to a line in a transaction's write set, or any
// foreign write to a line in its read set, aborts the transaction; the write
// set is bounded by the L1 and the read set by a larger tracking structure;
// transactions may also abort themselves explicitly. Transactional writes
// are buffered and applied at commit, so no concurrent thread ever observes
// a partial transaction (strong atomicity).
//
// Threads beyond the core count share cores (2-way SMT); while both
// hyperthreads of a core are live, their event costs are multiplied by a
// contention factor, which produces the characteristic knee at the core
// count in throughput curves.
//
// Simulated code runs as ordinary Go against the Thread API (Load, Store,
// CAS, Fence, Alloc, Atomic, ...); outside Machine.Run those calls execute
// immediately and free of charge, which is how benchmarks prefill data
// structures.
//
// Inside Run only the thread holding the machine's single baton runs its
// body; every other body is parked. There is no scheduler: the body that
// posts an event takes the scheduling decision itself (Machine.schedule). A
// started, unfinished thread is in one of three states:
//
//   - running: its body holds the baton (or has just been handed it);
//   - pending: it has posted an event that has not been executed;
//   - replied: its event has been executed, by another body's scheduling
//     decision, and its body has not been resumed to collect the answer.
//
// Go code between two events costs no cycles, so a thread's clock is the time
// of its posted event and equally of the one it will post next. The baton
// holder therefore looks at the live thread with the smallest (clock, id)
// whatever its state. If that thread is pending, the holder executes its
// event on the spot — it carries on if the event was its own, and otherwise
// marks the thread replied and looks again. If it is replied, only its body
// can say what comes next: the holder hands it the baton and parks
// (Stats.Handoffs counts these wake-ups). A thread woken this way is the
// global minimum, so it collects its reply and executes its next event
// without a hand-off: events are executed in exactly the order above, and
// while no core is shared a hand-off pays for two events or more. Threads are
// started one at a time under the same baton, each when the previous one
// posts its first event or ends.
//
// How a parked body is resumed is the one thing that depends on the
// toolchain, and it is fixed at build time. From Go 1.23 on (baton_coro.go)
// each body is a coroutine of iter.Pull that Run's goroutine resumes: a body
// parks by yielding back to Run, which resumes the thread it was handed to,
// so a hand-off is two direct coroutine switches and never goes through the
// Go scheduler. On Go 1.22, which has no iter (baton_chan.go), each body is a
// goroutine parked on a channel of its own and a hand-off is a send on it.
// The schedule is the same either way: which events run, in which order, and
// the hand-off count.
//
// The sibling rule: the SMT charge asks whether a thread's sibling has
// finished, and a replied thread may have — its body returns when resumed. So
// before an event is executed whose thread has a replied sibling, that
// sibling is resumed first, although it is not the minimum (such a wake-up
// delivers a reply and no event, so threads in lock-step on shared cores hand
// off more); when the event is charged its sibling is pending or finished,
// never undecided.
//
// Two rules follow for bodies, and they hold whichever baton file is built,
// because either way exactly one body runs at a time and a parked one runs
// again only when the schedule says so. Bodies communicate only through
// simulated memory: a body that blocks on a Go channel or mutex until another
// body acts deadlocks the run, because that other body is not running. And
// since a replied thread's body is resumed late, the stretches of Go code of
// different threads do not run in event order: bodies may share Go-side
// state only if it never influences which events they post. Per-thread slots
// indexed by Thread.ID and write-only counters read after Run are fine; a
// shared Go variable that one body writes and another branches on is not —
// put it in simulated memory, where the event order applies.
package sim

import "fmt"

// Addr is a simulated memory address in 8-byte words. Address 0 is the null
// pointer and is never allocated.
type Addr uint64

// LineWords is the cache line size in words (64 bytes).
const LineWords = 8

func lineOf(a Addr) uint64 { return uint64(a) / LineWords }

// Status reports how a transaction attempt ended.
type Status int

const (
	// OK means the transaction committed.
	OK Status = iota
	// AbortConflict is a requester-wins data conflict.
	AbortConflict
	// AbortCapacity means the read or write footprint exceeded the HTM's
	// tracking capacity.
	AbortCapacity
	// AbortExplicit is a self-inflicted abort (Thread.TxAbort).
	AbortExplicit
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case AbortConflict:
		return "conflict"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Stats aggregates machine-wide event counts for diagnostics.
type Stats struct {
	Loads, Stores, CASes, Fences uint64
	Allocs, Frees                uint64
	TxCommits                    uint64
	TxConflicts                  uint64
	TxCapacity                   uint64
	TxExplicit                   uint64
	// Handoffs counts the times the baton woke a parked thread: one per
	// wake-up, whichever baton file is built (package comment). On Go 1.23
	// and later each costs the host two coroutine switches, on Go 1.22 a
	// channel send and a goroutine switch.
	Handoffs uint64
}

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opCAS
	opFence
	opAlloc
	opAllocLocal
	opFree
	opWork
	opTxBegin
	opTxEnd
	opTxAbort
)

type request struct {
	kind   opKind
	addr   Addr
	val    uint64 // store value / CAS new / work cycles / alloc words
	old    uint64 // CAS expected
	status Status // opTxAbort reason
}

type reply struct {
	val     uint64 // load result / alloc address
	ok      bool   // CAS result
	aborted bool
	status  Status
}

// dline is a directory entry: which thread owns the line modified (-1 none)
// and which threads share it.
type dline struct {
	owner   int8
	sharers uint16
}

// pageWords makes a page 17 KB, just under the 18 KB allocation size class.
const pageWords = 1 << 11

// page is one unit of simulated memory with the directory entries of its
// lines. Addresses come from a bump allocator, so pages are dense and live in
// a slice indexed by page number, created on first touch — or, on a machine
// with a shared image (Clone), copied from the image on first touch.
type page struct {
	words [pageWords]uint64
	dir   [pageWords / LineWords]dline
}

// thread is the machine-side state of a simulated hardware thread.
type thread struct {
	id      int
	sibling *thread // SMT sibling, or nil
	clock   uint64
	done    bool

	// L1 model: directory bits are authoritative; fifo, a ring of L1Lines
	// entries whose oldest is at head, approximates occupancy for capacity
	// eviction.
	fifo []uint64
	head int

	inTx      bool
	txAborted bool
	txStatus  Status
	// tracker is the per-thread footprint tracker of the machine's HTMModel
	// (htmmodel.go): it owns the read/write line sets, capacity accounting,
	// and the eviction-abort rule. The store buffer below is substrate, not
	// model — every model buffers writes until commit (strong atomicity).
	tracker    TxTracker
	writeBuf   map[Addr]uint64
	writeOrder []Addr

	// The baton protocol (Run): the thread's posted event, its answer, where
	// the two stand (state), and how its parked body is resumed when the
	// baton comes back to it (threadBaton, in baton_coro.go or
	// baton_chan.go).
	req   request
	rep   reply
	state threadState
	threadBaton
}

// threadState says where a started, unfinished thread stands in the baton
// protocol (package comment).
type threadState uint8

const (
	// running: the body holds the baton, or has been handed it.
	running threadState = iota
	// pending: req is posted and not yet executed; the body is parked, or is
	// the one scheduling.
	pending
	// replied: req has been executed into rep by another body and the body
	// has not been resumed, so its next event — at this same clock — is
	// not known yet, nor whether there is one.
	replied
)

// Machine is the simulated multicore. Create with New, build initial state
// with direct Thread calls, then measure with Run.
type Machine struct {
	cfg   Config
	cost  CostModel
	model HTMModel
	stats Stats

	pages []*page
	// base is the shared image this machine's memory started from (Clone):
	// pages that no machine writes, with no nil entry. page copies base[n]
	// into pages on the first touch of page n.
	base []*page

	threads []*thread
	api     []*Thread

	nextAddr  Addr
	allocLine [1]Addr // shared allocator metadata line (the malloc bottleneck)

	// Run state: the body, how many threads have been started, their panics,
	// and how Run learns where the baton goes (machineBaton).
	running bool
	body    func(t *Thread)
	started int
	panics  []any
	machineBaton

	// Set-up mode (outside Run): while directTx is set a setup-time
	// transaction is open and undo holds what its writes overwrote.
	directTx bool
	undo     []undoEntry
}

// New returns a machine with the given configuration. The configuration
// must pass Config.Validate; an invalid one panics with its error.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	model := modelFor(cfg)
	m := &Machine{
		cfg:      cfg,
		cost:     cfg.Cost,
		model:    model,
		nextAddr: LineWords, // skip the null line
	}
	// Reserve the allocator metadata lines.
	for i := range m.allocLine {
		m.allocLine[i] = m.nextAddr
		m.nextAddr += LineWords
	}
	threads, api := make([]thread, cfg.Threads), make([]Thread, cfg.Threads) // one allocation each
	for i := range threads {
		threads[i] = thread{id: i, tracker: model.NewTracker()}
		api[i] = Thread{m: m, id: i, rng: splitmix(cfg.Seed + uint64(i)*0x9E3779B97F4A7C15)}
		m.threads = append(m.threads, &threads[i])
		m.api = append(m.api, &api[i])
	}
	for _, t := range m.threads {
		// The last thread on t's core other than t (2-way SMT: the only one).
		for o := t.id % cfg.Cores; o < cfg.Threads; o += cfg.Cores {
			if o != t.id {
				t.sibling = m.threads[o]
			}
		}
	}
	return m
}

func (t *thread) resetTx() {
	t.inTx = false
	t.txAborted = false
	t.tracker.End()
	clear(t.writeBuf)
	t.writeOrder = t.writeOrder[:0]
}

// Stats returns machine-wide event counters.
func (m *Machine) Stats() Stats { return m.stats }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Model returns the machine's transactional-hardware model.
func (m *Machine) Model() HTMModel { return m.model }

// Thread returns the API handle for hardware thread i. Before Run, its
// operations execute directly (for building initial state); during Run it
// must only be used by the body function running on it.
func (m *Machine) Thread(i int) *Thread { return m.api[i] }

// page returns page n, creating it on first touch: a copy of the shared
// image's page n if there is one, else blank. A load counts as a touch
// (access writes the directory on reads). page stays within the inliner's
// budget, and so do word and dirEntry around it: every access inlines it.
func (m *Machine) page(n uint64) *page {
	if n < uint64(len(m.pages)) && m.pages[n] != nil {
		return m.pages[n]
	}
	for uint64(len(m.pages)) <= n {
		m.pages = append(m.pages, nil)
	}
	p := new(page)
	if n < uint64(len(m.base)) {
		*p = *m.base[n]
	} else {
		p.dir = blank.dir
	}
	m.pages[n] = p
	return p
}

// blank is a page as page creates it where no image has one: every word
// zero, every line unowned. It stands in the image for a page the template
// never touched.
var blank = func() (p page) {
	for i := range p.dir {
		p.dir[i].owner = -1
	}
	return p
}()

// Clone returns a machine with configuration cfg whose simulated memory
// starts as m's: every word, every directory entry and the allocation
// frontier. It is how a benchmark builds a structure once and runs each point
// on a copy. The two machines share m's pages as an image that neither
// writes: each copies a page on its first touch of it, read or write, so
// neither ever sees the other's accesses. The clone also starts with m's
// Stats, and each thread that m and cfg both have keeps its random stream and
// clock; the other threads start as New starts them, and every thread's cache
// starts empty. m must be in set-up mode, outside Run and outside a set-up
// transaction.
//
// reuse, if not nil, is an earlier clone whose run is over. The new clone
// takes its page buffers for the pages it touched, filled now as a first
// touch would fill them, so a benchmark that runs point after point from one
// image makes no garbage pages. reuse's threads are detached: any later use
// of it panics.
func (m *Machine) Clone(cfg Config, reuse *Machine) *Machine {
	if m.running || m.directTx {
		panic("sim: Clone inside Run or a set-up transaction")
	}
	if reuse == m || reuse != nil && reuse.running {
		panic("sim: Clone cannot reuse the image or a running machine")
	}
	// m's own pages join the image, and m too copies on first touch from now
	// on: its later writes must not show through in its clones.
	img := make([]*page, max(len(m.pages), len(m.base)))
	copy(img, m.base)
	for n := range img {
		if n < len(m.pages) && m.pages[n] != nil {
			img[n] = m.pages[n]
		} else if img[n] == nil {
			img[n] = &blank
		}
	}
	m.base, m.pages = img, nil
	c := New(cfg)
	c.base, c.nextAddr, c.stats = img, m.nextAddr, m.stats
	for i := range min(len(m.threads), len(c.threads)) {
		c.threads[i].clock = m.threads[i].clock
		c.api[i].rng, c.api[i].now = m.api[i].rng, m.api[i].now
	}
	if reuse != nil {
		c.pages, reuse.pages, reuse.base = reuse.pages, nil, nil
		for n, p := range c.pages {
			switch {
			case p == nil:
			case n < len(img):
				*p = *img[n]
			default:
				*p = blank
			}
		}
		for _, t := range reuse.api {
			t.m = nil
		}
	}
	return c
}

// Digest hashes m's simulated memory: the allocation frontier, and every word
// and directory entry of every page that differs from a blank one, with its
// page number. It reads without touching, so it copies no shared page. Two
// machines whose memory reads the same have the same digest, wherever their
// pages live.
func (m *Machine) Digest() uint64 {
	h := splitmix(uint64(m.nextAddr))
	for n := range max(len(m.pages), len(m.base)) {
		var p *page
		if n < len(m.pages) && m.pages[n] != nil {
			p = m.pages[n]
		} else if n < len(m.base) {
			p = m.base[n]
		}
		if p == nil || *p == blank {
			continue
		}
		h = splitmix(h ^ uint64(n))
		for _, w := range p.words {
			h = splitmix(h ^ w)
		}
		for _, d := range p.dir {
			h = splitmix(h ^ uint64(uint8(d.owner))<<16 ^ uint64(d.sharers))
		}
	}
	return h
}

// word returns a pointer to the backing word for a.
func (m *Machine) word(a Addr) *uint64 {
	return &m.page(uint64(a) / pageWords).words[uint64(a)%pageWords]
}

func (m *Machine) dirEntry(l uint64) *dline {
	const pageLines = pageWords / LineWords
	return &m.page(l / pageLines).dir[l%pageLines]
}

// Run executes body on every thread and returns when every body has
// returned. It may be called repeatedly; thread clocks carry over. Bodies run
// one at a time (package comment) and must not wait for each other in Go.
func (m *Machine) Run(body func(t *Thread)) {
	for _, t := range m.threads {
		t.done, t.state = false, running
	}
	m.running, m.body, m.started = true, body, 0
	m.panics = make([]any, len(m.threads))
	m.drive()
	m.running, m.body = false, nil
	for _, p := range m.panics {
		if p != nil {
			panic(p)
		}
	}
}

// start hands the baton to the body of the next unstarted thread. When the
// body ends, its last schedule passes the baton on.
func (m *Machine) start() {
	t := m.threads[m.started]
	m.started++
	m.launch(t)
}

// runBody runs the machine's body on t and then, whatever ended it, passes
// the baton on for good. The baton files run it as the thread's coroutine or
// goroutine.
func (m *Machine) runBody(t *thread) {
	defer func() {
		if r := recover(); r != nil {
			// Surface panics from simulated code to Run's caller.
			m.panics[t.id] = fmt.Sprintf("sim thread %d: %v", t.id, r)
		}
		t.done = true
		t.resetTx() // a body that panicked inside Atomic left its transaction open
		m.schedule(t)
	}()
	m.body(m.api[t.id])
}

// schedule is called by the body holding the baton once its thread self has
// posted an event or finished, and returns when that event has been executed
// and the baton is back. It is the protocol of the package comment: while
// threads remain unstarted it starts the next one; otherwise it takes the
// live thread with the smallest (clock, id) and executes its event if it is
// pending — returning if the event was self's own, looking again if not — or
// hands it the baton if it is replied, or, sibling rule, hands it to the
// replied sibling of a pending one. The last thread to finish finds nobody
// live and hands the baton back to Run.
func (m *Machine) schedule(self *thread) {
	park := !self.done // read now: once the baton is passed on, machine state is another body's
	if m.started < len(m.threads) {
		m.start()
	} else {
		for {
			var pick *thread
			for _, t := range m.threads {
				if !t.done && (pick == nil || t.clock < pick.clock) {
					pick = t
				}
			}
			if pick == nil {
				m.hand(nil)
				return
			}
			if pick.state == pending {
				if s := pick.sibling; s == nil || s.state != replied {
					pick.rep = m.process(pick, &pick.req)
					if pick == self {
						self.state = running
						return
					}
					pick.state = replied
					continue
				}
				pick = pick.sibling
			}
			// pick is replied: the machine cannot go on until its body has.
			m.stats.Handoffs++
			pick.state = running
			m.hand(pick)
			break
		}
	}
	if park {
		m.park(self)
	}
}

// charge adds cycles to t's clock, inflated if its SMT sibling is live.
func (m *Machine) charge(t *thread, c uint64) {
	if s := t.sibling; s != nil && !s.done {
		c = uint64(float64(c) * m.cfg.SMTFactor)
	}
	t.clock += c
}

// abortTx marks a transaction doomed; the owner discovers it at its next
// event. Requester-wins, as in Intel TSX.
func (m *Machine) abortOther(v *thread, st Status) {
	if v.inTx && !v.txAborted {
		v.txAborted = true
		v.txStatus = st
	}
}

// conflicts applies strong-atomicity conflict detection for an access by t.
// Writes also test the victims' read footprint, which on imprecise models
// (the RTM read signature) can report false conflicts — the larger a
// transaction's read set, the likelier it is to be killed by an unrelated
// write, as with real best-effort HTM.
func (m *Machine) conflicts(t *thread, l uint64, write bool) {
	for _, v := range m.threads {
		if v == t || !v.inTx {
			continue
		}
		if v.tracker.HasWrite(l) {
			m.abortOther(v, AbortConflict)
			continue
		}
		if write && v.tracker.MayHaveRead(l) {
			m.abortOther(v, AbortConflict)
		}
	}
}

// access charges the coherence cost of one load or store and updates the
// directory and t's cache occupancy. It returns the charged cycles.
func (m *Machine) access(t *thread, a Addr, write bool) uint64 {
	l := lineOf(a)
	d := m.dirEntry(l)
	bit := uint16(1) << t.id
	var c uint64
	if write {
		switch {
		case d.owner == int8(t.id):
			c = m.cost.L1Hit
		case d.owner >= 0:
			c = m.cost.RemoteDirty
		case d.sharers&^bit != 0:
			c = m.cost.Miss // upgrade: invalidate sharers
		case d.sharers&bit != 0:
			c = m.cost.L1Hit // exclusive-ish upgrade
		default:
			c = m.cost.Miss
		}
		newLine := d.sharers&bit == 0
		d.owner = int8(t.id)
		d.sharers = bit
		if newLine {
			m.insertLine(t, l)
		}
	} else {
		switch {
		case d.sharers&bit != 0:
			c = m.cost.L1Hit
		case d.owner >= 0:
			c = m.cost.RemoteDirty
			d.owner = -1
		default:
			c = m.cost.Miss
		}
		if d.sharers&bit == 0 {
			d.sharers |= bit
			m.insertLine(t, l)
		}
	}
	return c
}

// insertLine records line l in t's cache, evicting FIFO-oldest on overflow.
// On L1-coupled models (RTM), evicting a line in the running transaction's
// write set is a capacity abort; models with dedicated set storage shrug.
func (m *Machine) insertLine(t *thread, l uint64) {
	if len(t.fifo) < m.cfg.L1Lines {
		t.fifo = append(t.fifo, l)
		return
	}
	old := t.fifo[t.head]
	t.fifo[t.head] = l
	t.head = (t.head + 1) % len(t.fifo)
	if old == l {
		return
	}
	bit := uint16(1) << t.id
	d := m.dirEntry(old)
	if d.sharers&bit == 0 {
		return // stale entry: already invalidated
	}
	if t.inTx && !t.txAborted && t.tracker.EvictionAborts(old) {
		t.txAborted = true
		t.txStatus = AbortCapacity
	}
	d.sharers &^= bit
	if d.owner == int8(t.id) {
		d.owner = -1
	}
}

// process executes one event, on whichever body holds the baton. All
// memory and HTM state changes happen here, in global event order.
func (m *Machine) process(t *thread, r *request) reply {
	// A doomed transaction learns of its abort at its next event.
	if t.inTx && t.txAborted && r.kind != opTxAbort && r.kind != opTxEnd {
		return m.finishAbort(t)
	}
	cost := m.cost.Op
	rep := reply{}
	switch r.kind {
	case opLoad:
		m.stats.Loads++
		m.conflicts(t, lineOf(r.addr), false)
		cost += m.access(t, r.addr, false)
		if t.inTx {
			if v, ok := t.writeBuf[r.addr]; ok {
				rep.val = v
			} else {
				rep.val = *m.word(r.addr)
			}
			if !t.tracker.Read(lineOf(r.addr)) {
				t.txAborted, t.txStatus = true, AbortCapacity
				return m.finishAbort(t)
			}
		} else {
			rep.val = *m.word(r.addr)
		}
	case opStore, opCAS:
		write := true
		if r.kind == opCAS {
			m.stats.CASes++
			cost += m.cost.CASExtra
		} else {
			m.stats.Stores++
		}
		m.conflicts(t, lineOf(r.addr), write)
		cost += m.access(t, r.addr, write)
		cur := *m.word(r.addr)
		if t.inTx {
			if v, ok := t.writeBuf[r.addr]; ok {
				cur = v
			}
		}
		doWrite := true
		val := r.val
		if r.kind == opCAS {
			rep.ok = cur == r.old
			doWrite = rep.ok
		}
		if doWrite {
			if t.inTx {
				if _, ok := t.writeBuf[r.addr]; !ok {
					t.writeOrder = append(t.writeOrder, r.addr)
				}
				t.writeBuf[r.addr] = val
				if !t.tracker.Write(lineOf(r.addr)) {
					t.txAborted, t.txStatus = true, AbortCapacity
					return m.finishAbort(t)
				}
			} else {
				*m.word(r.addr) = val
			}
		}
	case opFence:
		m.stats.Fences++
		cost += m.cost.Fence
	case opAlloc:
		m.stats.Allocs++
		// One CAS on a shared allocator metadata line plus base cost. The
		// allocator is HTM-neutral (real allocators run out of per-thread
		// caches, so malloc inside a transaction does not put the shared
		// metadata in the transaction's footprint), but the metadata line
		// still ping-pongs between cores, which is the contention the paper
		// attributes to write-heavy copy-on-write workloads.
		meta := m.allocLine[int(r.val)%len(m.allocLine)]
		mc := m.access(t, meta, true)
		if mc >= m.cost.Miss {
			mc += m.cost.AllocContended // lock handoff between cores
		}
		cost += mc + m.cost.CASExtra + m.cost.AllocBase
		words := (r.val + LineWords - 1) / LineWords * LineWords
		rep.val = uint64(m.nextAddr)
		m.nextAddr += Addr(words)
	case opAllocLocal:
		m.stats.Allocs++
		// Per-thread arena or free pool: no shared metadata at all. Models
		// structures that reuse memory from operation to operation (e.g. the
		// Mound's descriptors).
		cost += m.cost.L1Hit + m.cost.AllocLocal
		words := (r.val + LineWords - 1) / LineWords * LineWords
		rep.val = uint64(m.nextAddr)
		m.nextAddr += Addr(words)
	case opFree:
		m.stats.Frees++
		meta := m.allocLine[int(r.val)%len(m.allocLine)]
		fc := m.access(t, meta, true)
		if fc >= m.cost.Miss {
			fc += m.cost.AllocContended
		}
		cost += fc + m.cost.CASExtra + m.cost.FreeBase
	case opWork:
		cost += r.val
	case opTxBegin:
		cost += m.cost.TxBegin
		t.inTx = true
		t.txAborted = false
		t.tracker.Begin()
		if t.writeBuf == nil {
			t.writeBuf = make(map[Addr]uint64, 16)
		}
	case opTxEnd:
		if t.txAborted {
			return m.finishAbort(t)
		}
		cost += m.cost.TxEnd
		for _, a := range t.writeOrder {
			*m.word(a) = t.writeBuf[a]
		}
		m.stats.TxCommits++
		t.resetTx()
	case opTxAbort:
		t.txStatus, t.txAborted = r.status, true
		return m.finishAbort(t)
	}
	m.charge(t, cost)
	return rep
}

// finishAbort rolls a doomed transaction back and reports the abort.
func (m *Machine) finishAbort(t *thread) reply {
	st := t.txStatus
	switch st {
	case AbortConflict:
		m.stats.TxConflicts++
	case AbortCapacity:
		m.stats.TxCapacity++
	case AbortExplicit:
		m.stats.TxExplicit++
	}
	t.resetTx()
	m.charge(t, m.cost.Op+m.cost.TxAbort)
	return reply{aborted: true, status: st}
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
