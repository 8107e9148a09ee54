package sim

// Thread is simulated code's handle to one hardware thread. During
// Machine.Run each method is one simulated event; outside Run the methods
// execute immediately and free of charge, which is how initial data
// structure state is built.
//
// During Run a Thread must only be used by its own body, which is then the
// one body holding the baton (Machine's package comment).
type Thread struct {
	m         *Machine
	id        int
	rng       uint64
	now       uint64
	inTx      bool
	abortCode int
}

// txSignal unwinds an aborted transaction to Atomic.
type txSignal struct{ status Status }

// do executes one event. During Run it posts the event in the thread's own
// slot and takes the scheduling decision (Machine.schedule); neither mode
// allocates.
func (t *Thread) do(r request) reply {
	if !t.m.running {
		if r.kind == opTxAbort {
			t.inTx = false
			panic(txSignal{status: r.status})
		}
		return t.m.direct(&r)
	}
	th := t.m.threads[t.id]
	th.req, th.state = r, pending
	t.m.schedule(th)
	t.now = th.clock
	if th.rep.aborted {
		t.inTx = false
		panic(txSignal{status: th.rep.status})
	}
	return th.rep
}

// undoEntry is one word a setup-time transaction overwrote, and what it held.
type undoEntry struct {
	addr Addr
	old  uint64
}

// directWrite is a set-up mode write: in place, and inside a setup-time
// transaction logged so that an abort can take it back.
func (m *Machine) directWrite(a Addr, v uint64) {
	w := m.word(a)
	if m.directTx {
		m.undo = append(m.undo, undoEntry{a, *w})
	}
	*w = v
}

// direct executes an event other than a load or a store (Thread.Load and
// Thread.Store take their own short cut) immediately, with functional effects
// only: no cost, no coherence, no conflicts.
func (m *Machine) direct(r *request) reply {
	switch r.kind {
	case opCAS:
		if *m.word(r.addr) != r.old {
			return reply{ok: false}
		}
		m.directWrite(r.addr, r.val)
		return reply{ok: true}
	case opAlloc, opAllocLocal:
		words := (r.val + LineWords - 1) / LineWords * LineWords
		a := m.nextAddr
		m.nextAddr += Addr(words)
		return reply{val: uint64(a)}
	}
	return reply{}
}

// ID returns the hardware thread index.
func (t *Thread) ID() int { return t.id }

// Now returns the thread's cycle clock as of its last event.
func (t *Thread) Now() uint64 { return t.now }

// Rand returns a deterministic per-thread pseudo-random value.
func (t *Thread) Rand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// Load reads the word at a.
func (t *Thread) Load(a Addr) uint64 {
	if !t.m.running {
		return *t.m.word(a)
	}
	return t.do(request{kind: opLoad, addr: a}).val
}

// Store writes v to the word at a. Inside a transaction the write is
// invisible to other threads until commit and taken back by an abort.
func (t *Thread) Store(a Addr, v uint64) {
	if !t.m.running {
		t.m.directWrite(a, v)
		return
	}
	t.do(request{kind: opStore, addr: a, val: v})
}

// CAS atomically compares-and-swaps the word at a, reporting success. It
// carries the locked-instruction premium; transactional code should use
// Load/Store instead (§2.3's strength reduction).
func (t *Thread) CAS(a Addr, old, new uint64) bool {
	return t.do(request{kind: opCAS, addr: a, old: old, val: new}).ok
}

// Fence charges an explicit memory fence (or the ordering cost of a
// sequentially consistent store).
func (t *Thread) Fence() {
	t.do(request{kind: opFence})
}

// Alloc returns a fresh line-aligned block of the given number of words,
// charging the shared allocator.
func (t *Thread) Alloc(words int) Addr {
	return Addr(t.do(request{kind: opAlloc, val: uint64(words)}).val)
}

// AllocLocal returns a fresh line-aligned block from the thread's own arena
// or free pool — no shared allocator interaction. Models structures that
// recycle memory from one operation to the next.
func (t *Thread) AllocLocal(words int) Addr {
	return Addr(t.do(request{kind: opAllocLocal, val: uint64(words)}).val)
}

// Free returns a block to the allocator (cost only; addresses are never
// reused, so stale readers see stale values rather than recycled ones).
func (t *Thread) Free(a Addr, words int) {
	t.do(request{kind: opFree, addr: a, val: uint64(words)})
}

// Work charges the given cycles of pure computation.
func (t *Thread) Work(cycles uint64) {
	t.do(request{kind: opWork, val: cycles})
}

// TxAbort aborts the running transaction with AbortExplicit, recording code
// for the fallback path. It must be called inside Atomic and does not return.
func (t *Thread) TxAbort(code int) {
	if !t.inTx {
		panic("sim: TxAbort outside a transaction")
	}
	t.abortCode = code
	t.do(request{kind: opTxAbort, status: AbortExplicit})
	panic("unreachable") // the abort reply always panics with txSignal
}

// TxAbortCapacity aborts the running transaction with AbortCapacity. It
// models a footprint overflow decided by software — a modeled read- or
// write-set budget (internal/simtxn) rather than the machine's own cache
// geometry — and, like TxAbort, must be called inside Atomic and does not
// return.
func (t *Thread) TxAbortCapacity() {
	if !t.inTx {
		panic("sim: TxAbortCapacity outside a transaction")
	}
	t.do(request{kind: opTxAbort, status: AbortCapacity})
	panic("unreachable") // the abort reply always panics with txSignal
}

// AbortCode returns the code passed to the last TxAbort on this thread.
func (t *Thread) AbortCode() int { return t.abortCode }

// Atomic runs body as one best-effort hardware transaction attempt and
// reports how it ended. Exactly one attempt is made; retry policy belongs to
// the caller, as with RTM. Nesting is not supported.
func (t *Thread) Atomic(body func()) Status {
	if t.inTx {
		panic("sim: nested Atomic")
	}
	if !t.m.running {
		return t.directAtomic(body)
	}
	t.inTx = true
	defer func() { t.inTx = false }()
	return func() (st Status) {
		defer func() {
			if r := recover(); r != nil {
				if sig, ok := r.(txSignal); ok {
					st = sig.status
					return
				}
				panic(r)
			}
		}()
		t.do(request{kind: opTxBegin})
		body()
		t.do(request{kind: opTxEnd})
		return OK
	}()
}

// directAtomic is Atomic in set-up mode, which is single-threaded: writes go
// in place behind an undo log, and whatever ends body early — TxAbort or a
// panic of the caller's own — unwinds the log, newest entry first.
func (t *Thread) directAtomic(body func()) (st Status) {
	m := t.m
	t.inTx, m.directTx = true, true
	defer func() {
		t.inTx, m.directTx = false, false
		for i := len(m.undo) - 1; i >= 0; i-- { // empty after a commit
			*m.word(m.undo[i].addr) = m.undo[i].old
		}
		m.undo = m.undo[:0]
		if r := recover(); r != nil {
			sig, ok := r.(txSignal)
			if !ok {
				panic(r)
			}
			st = sig.status
		}
	}()
	body()
	m.undo = m.undo[:0] // commit
	return OK
}
