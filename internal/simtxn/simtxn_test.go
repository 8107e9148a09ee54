package simtxn

import (
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// mcasOn is the test driver for one modeled MultiCAS over the given
// (addr, old, new) triples, sorting as the fallback does.
func mcasOn(t *sim.Thread, ents []entry) bool {
	sort.Slice(ents, func(i, j int) bool { return ents[i].addr < ents[j].addr })
	return mcas(t, ents)
}

// TestMCASBasic exercises the descriptor protocol single-threaded: success,
// value mismatch, and validation-only entries.
func TestMCASBasic(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	setup := m.Thread(0)
	a := setup.Alloc(2)
	setup.Store(a, 10)
	setup.Store(a+1, 20)
	m.Run(func(th *sim.Thread) {
		if !mcasOn(th, []entry{{addr: a, old: 10, new: 11}, {addr: a + 1, old: 20, new: 21}}) {
			t.Error("matching MultiCAS failed")
		}
		if th.Load(a) != 11 || th.Load(a+1) != 21 {
			t.Errorf("words after success: %d %d", th.Load(a), th.Load(a+1))
		}
		if mcasOn(th, []entry{{addr: a, old: 11, new: 12}, {addr: a + 1, old: 99, new: 1}}) {
			t.Error("mismatching MultiCAS succeeded")
		}
		if th.Load(a) != 11 || th.Load(a+1) != 21 {
			t.Errorf("words after failure: %d %d", th.Load(a), th.Load(a+1))
		}
		// Validation-only (old == new) succeeds without changing anything.
		if !mcasOn(th, []entry{{addr: a, old: 11, new: 11}, {addr: a + 1, old: 21, new: 21}}) {
			t.Error("validation MultiCAS failed")
		}
		if th.Load(a) != 11 || th.Load(a+1) != 21 {
			t.Errorf("words after validation: %d %d", th.Load(a), th.Load(a+1))
		}
	})
}

// TestMCASConservation hammers overlapping two-word transfers from every
// thread: each success moves one unit between two of eight counters, so the
// total is conserved exactly iff each MultiCAS was atomic and helping never
// double-applied or lost an update. Odd threads make their transfers
// through a speculating manager under the policy at hand, so fast-path
// commits (and the fallbacks a crowded fast path falls to) meet the raw
// descriptors of the even threads.
func TestMCASConservation(t *testing.T) {
	for _, c := range []struct {
		name string
		pol  speculate.Policy
	}{
		{"default", simspec.DefaultPolicy()},
		{"adaptive", speculate.Adaptive()},
	} {
		t.Run(c.name, func(t *testing.T) { checkMCASConservation(t, c.pol) })
	}
}

func checkMCASConservation(t *testing.T, pol speculate.Policy) {
	const threads = 8
	const words = 8
	const opsPer = 300
	const initVal = uint64(1) << 32

	m := sim.New(sim.DefaultConfig(threads))
	setup := m.Thread(0)
	base := setup.Alloc(words)
	for i := 0; i < words; i++ {
		setup.Store(base+sim.Addr(i), initVal)
	}
	mgr := New(0).WithPolicy(pol)
	m.Run(func(th *sim.Thread) {
		for i := 0; i < opsPer; i++ {
			x := th.Rand()
			ai := sim.Addr(x % words)
			bi := sim.Addr(x >> 8 % words)
			if ai == bi {
				bi = (bi + 1) % words
			}
			if th.ID()%2 == 1 {
				mgr.Atomic(th, func(c *Ctx) {
					c.Write(base+ai, c.Read(base+ai)+1)
					c.Write(base+bi, c.Read(base+bi)-1)
				})
				continue
			}
			for {
				av := resolve(th, base+ai)
				bv := resolve(th, base+bi)
				if mcasOn(th, []entry{
					{addr: base + ai, old: av, new: av + 1},
					{addr: base + bi, old: bv, new: bv - 1},
				}) {
					break
				}
			}
		}
	})
	var sum uint64
	for i := 0; i < words; i++ {
		w := setup.Load(base + sim.Addr(i))
		if w&markerBit != 0 {
			t.Fatalf("word %d left marked: %#x", i, w)
		}
		sum += w
	}
	if sum != words*initVal {
		t.Errorf("total drifted: got %d, want %d", sum, words*initVal)
	}
	if m.Stats().TxCommits == 0 {
		t.Error("no transfer committed on the fast path")
	}
}

// TestCtxCaptureReadOwnWrites pins the capture buffer's semantics: Read
// after Write sees the staged value, Peek honors staged writes, and the
// commit publishes reads as validation entries and writes as updates.
func TestCtxCaptureReadOwnWrites(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	setup := m.Thread(0)
	a := setup.Alloc(2)
	setup.Store(a, 5)
	setup.Store(a+1, 7)
	mgr := New(0).ForceFallback(true)
	m.Run(func(th *sim.Thread) {
		mgr.Atomic(th, func(c *Ctx) {
			if got := c.Read(a); got != 5 {
				t.Errorf("Read = %d, want 5", got)
			}
			c.Write(a, 50)
			if got := c.Read(a); got != 50 {
				t.Errorf("Read after Write = %d, want 50", got)
			}
			if got := c.Peek(a); got != 50 {
				t.Errorf("Peek after Write = %d, want 50", got)
			}
			if got := c.Peek(a + 1); got != 7 {
				t.Errorf("Peek = %d, want 7", got)
			}
		})
		if th.Load(a) != 50 || th.Load(a+1) != 7 {
			t.Errorf("after commit: %d %d, want 50 7", th.Load(a), th.Load(a+1))
		}
	})
}

// TestReadOnlyRejectsWrites pins the ReadOnly contract.
func TestReadOnlyRejectsWrites(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	setup := m.Thread(0)
	a := setup.Alloc(1)
	mgr := New(0).ForceFallback(true)
	m.Run(func(th *sim.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("ReadOnly with a Write did not panic")
			}
		}()
		mgr.ReadOnly(th, func(c *Ctx) { c.Write(a, 1) })
	})
}

// TestOnCommitRunsOncePerCommit: hooks registered by an attempt that aborts
// must not run; the committing attempt's hooks run exactly once.
func TestOnCommitRunsOncePerCommit(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	setup := m.Thread(0)
	a := setup.Alloc(1)
	mgr := New(0)
	m.Run(func(th *sim.Thread) {
		runs := 0
		tries := 0
		mgr.Atomic(th, func(c *Ctx) {
			tries++
			c.OnCommit(func() { runs++ })
			if tries < 3 {
				c.Retry() // burn fast-path attempts, then capture restarts
			}
			c.Write(a, uint64(tries))
		})
		if runs != 1 {
			t.Errorf("commit hooks ran %d times, want 1", runs)
		}
		if tries < 3 {
			t.Errorf("body ran %d times, want ≥ 3", tries)
		}
	})
}

// TestLateHelperCannotReclaimDecidedWord stages the helper that arrives
// late: it has seen the descriptor undecided and loaded the word's old
// value, then stalled. Meanwhile the descriptor is decided and released,
// and both words get their old values back. When the helper resumes and
// claims, the claim must not attach the decided descriptor to the word, or
// the transfer would be applied a second time.
func TestLateHelperCannotReclaimDecidedWord(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	setup := m.Thread(0)
	a := setup.Alloc(2)
	setup.Store(a, 1)
	setup.Store(a+1, 2)
	m.Run(func(th *sim.Thread) {
		d := newDesc(th, []entry{{addr: a, old: 1, new: 10}, {addr: a + 1, old: 2, new: 20}})
		help(th, d) // another helper decides and releases while ours is stalled
		if th.Load(d+mcStatus) != mcSucceeded || th.Load(a) != 10 || th.Load(a+1) != 20 {
			t.Errorf("staging MultiCAS: status=%d a=%d b=%d", th.Load(d+mcStatus), th.Load(a), th.Load(a+1))
			return
		}
		th.Store(a, 1)
		th.Store(a+1, 2)
		claim(th, d, a, 1) // the late helper resumes and claims
		if got := resolve(th, a); got != 1 {
			t.Errorf("a = %d after the late claim, want 1: the decided MultiCAS applied twice", got)
		}
		if got := resolve(th, a+1); got != 2 {
			t.Errorf("b = %d after the late claim, want 2", got)
		}
	})
}
