package sim

import (
	"fmt"
	"testing"
)

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		OK: "ok", AbortConflict: "conflict", AbortCapacity: "capacity",
		AbortExplicit: "explicit", Status(42): "Status(42)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := DefaultConfig(3)
	m := New(cfg)
	if m.Config().Threads != 3 || m.Config().Cores != 4 {
		t.Fatalf("config = %+v", m.Config())
	}
}

func TestFreeChargesAndCounts(t *testing.T) {
	m := New(DefaultConfig(1))
	th := m.Thread(0)
	a := th.Alloc(4)
	m.Run(func(t *Thread) {
		t0 := t.Now()
		t.Free(a, 4)
		if t.Now() == t0 {
			panic("free charged nothing")
		}
	})
	if m.Stats().Frees != 1 {
		t.Fatalf("frees = %d", m.Stats().Frees)
	}
}

func TestDirectModeBranches(t *testing.T) {
	m := New(DefaultConfig(1))
	th := m.Thread(0)
	a := th.Alloc(1)
	th.Store(a, 7)
	if !th.CAS(a, 7, 8) || th.CAS(a, 7, 9) {
		t.Fatal("direct CAS semantics wrong")
	}
	th.Fence()    // cost-only no-ops in direct mode
	th.Work(100)  //
	th.Free(a, 1) //
	b := th.AllocLocal(1)
	if b == 0 || b == a {
		t.Fatal("direct AllocLocal wrong")
	}
	// Direct-mode transaction: reads of its own writes, CAS, and rollback.
	st := th.Atomic(func() {
		if th.Load(a) != 8 {
			panic("direct tx read wrong")
		}
		th.Store(a, 100)
		if th.Load(a) != 100 {
			panic("direct tx read-own-write wrong")
		}
		if !th.CAS(a, 100, 101) || th.CAS(a, 100, 102) {
			panic("direct tx CAS wrong")
		}
	})
	if st != OK || th.Load(a) != 101 {
		t.Fatalf("direct tx commit wrong: %v %d", st, th.Load(a))
	}
	st = th.Atomic(func() {
		th.Store(a, 999)
		th.TxAbort(5)
	})
	if st != AbortExplicit || th.Load(a) != 101 {
		t.Fatalf("direct tx abort leaked: %v %d", st, th.Load(a))
	}
	if th.AbortCode() != 5 {
		t.Fatalf("abort code = %d", th.AbortCode())
	}
}

// A setup-mode transaction writes in place behind an undo log: however it
// ends early, every word is as it was before, and the thread and machine are
// out of the transaction.
func TestDirectAtomicUndo(t *testing.T) {
	m := New(DefaultConfig(1))
	th := m.Thread(0)
	a := th.Alloc(LineWords)
	th.Store(a, 1)
	th.Store(a+1, 2)
	var inside Addr
	body := func(end func()) func() {
		return func() {
			th.Store(a, 10)
			if th.Load(a) != 10 {
				panic("load after store sees the old value")
			}
			th.Store(a, 11) // twice: the undo must restore the first old value, not the second
			if !th.CAS(a+1, 2, 20) || th.CAS(a+1, 2, 21) {
				panic("CAS semantics wrong")
			}
			inside = th.Alloc(1)
			th.Store(inside, 5)
			end()
		}
	}
	check := func(what string, v0, v1 uint64) {
		t.Helper()
		if g0, g1 := th.Load(a), th.Load(a+1); g0 != v0 || g1 != v1 {
			t.Fatalf("%s: words = %d, %d, want %d, %d", what, g0, g1, v0, v1)
		}
		if th.inTx || m.directTx || len(m.undo) != 0 {
			t.Fatalf("%s: inTx %v, directTx %v, %d undo entries left", what, th.inTx, m.directTx, len(m.undo))
		}
	}

	if st := th.Atomic(body(func() { th.TxAbort(3) })); st != AbortExplicit || th.AbortCode() != 3 {
		t.Fatalf("TxAbort: status %v, code %d", st, th.AbortCode())
	}
	check("TxAbort", 1, 2)
	if st := th.Atomic(body(th.TxAbortCapacity)); st != AbortCapacity {
		t.Fatalf("TxAbortCapacity: status %v", st)
	}
	check("TxAbortCapacity", 1, 2)

	foreign := fmt.Errorf("not the simulator's")
	func() {
		defer func() {
			if r := recover(); r != foreign {
				t.Fatalf("foreign panic came back as %v", r)
			}
		}()
		th.Atomic(body(func() { panic(foreign) }))
	}()
	check("foreign panic", 1, 2)

	// Allocation is not transactional: the aborted attempts' blocks stay
	// allocated, so a later Alloc does not hand out the same address.
	if next := th.Alloc(1); next <= inside {
		t.Fatalf("Alloc after aborted transactions returned %d, not beyond %d", next, inside)
	}

	if st := th.Atomic(body(func() {})); st != OK {
		t.Fatalf("commit: status %v", st)
	}
	check("commit", 11, 20)
	if th.Load(inside) != 5 {
		t.Fatalf("committed store to a block allocated inside = %d", th.Load(inside))
	}
}
