package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Tests of the baton protocol (Machine.schedule): who runs, who parks, and
// that nothing is left behind.

// runRecovering runs body and returns what Run panicked with, or nil.
func runRecovering(m *Machine, body func(t *Thread)) (p any) {
	defer func() { p = recover() }()
	m.Run(body)
	return nil
}

// settleGoroutines waits for the goroutines the bodies ran on (a coroutine of
// iter.Pull has one too) to exit: no more goroutines than before the run. On
// Go 1.22 Run does not join them (the last one signals Run and then returns). (Fewer is fine — an earlier test's may have been on
// their way out when the count was taken.)
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want %d", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	m := New(DefaultConfig(8))
	a := m.Thread(0).Alloc(LineWords)

	m.Run(func(th *Thread) { // bodies that end at very different clocks
		for i := 0; i < 10*(1+th.ID()*th.ID()); i++ {
			th.Store(a+Addr(th.ID()), th.Load(a)+1)
		}
	})
	settleGoroutines(t, start)

	if p := runRecovering(m, func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Load(a)
			if th.ID() == 3 && i == 20 {
				panic("boom")
			}
		}
	}); p != "sim thread 3: boom" {
		t.Fatalf("Run panicked with %v", p)
	}
	settleGoroutines(t, start)
}

func TestRunReentrantClocksCarryOver(t *testing.T) {
	m := New(DefaultConfig(4)) // one thread per core: no SMT inflation, so every Run costs the same
	body := func(th *Thread) {
		th.Work(uint64(10 + th.ID()))
		th.Fence()
	}
	m.Run(body)
	var first [4]uint64
	for i := range first {
		first[i] = m.Thread(i).Now()
	}
	for n := 2; n <= 100; n++ {
		m.Run(body)
		for i, c := range first {
			if got := m.Thread(i).Now(); got != uint64(n)*c {
				t.Fatalf("thread %d after %d runs: clock %d, want %d", i, n, got, uint64(n)*c)
			}
		}
	}
	if s := m.Stats(); s.Fences != 400 {
		t.Fatalf("fences = %d, want 400", s.Fences)
	}
}

// A body's panic is reported under its own thread id although the event after
// it — some other thread's — is executed by the panicking body's last
// scheduling decision, and the other bodies run to completion.
func TestPanicNamesItsThread(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		m := New(DefaultConfig(4))
		a := m.Thread(0).Alloc(LineWords)
		var finished [4]bool
		p := runRecovering(m, func(th *Thread) {
			for i := 0; i < 30; i++ {
				th.Store(a, uint64(i))
				if th.ID() == victim && i == 7 {
					panic(fmt.Errorf("bad %d", victim))
				}
			}
			finished[th.ID()] = true
		})
		if want := fmt.Sprintf("sim thread %d: bad %d", victim, victim); p != want {
			t.Fatalf("victim %d: Run panicked with %v, want %q", victim, p, want)
		}
		for i, f := range finished {
			if f == (i == victim) {
				t.Fatalf("victim %d: finished = %v", victim, finished)
			}
		}
		if m.Stats().Handoffs == 0 {
			t.Fatal("no event was executed by another body")
		}
	}
}

func TestEventlessBodiesDoNotStall(t *testing.T) {
	for _, idle := range [][]int{{0}, {3}, {1, 2}, {0, 1, 2, 3}} {
		m := New(DefaultConfig(4))
		a := m.Thread(0).Alloc(LineWords)
		skip := map[int]bool{}
		for _, i := range idle {
			skip[i] = true
		}
		m.Run(func(th *Thread) {
			if skip[th.ID()] {
				return
			}
			for i := 0; i < 20; i++ {
				th.Load(a)
			}
		})
		if got, want := m.Stats().Loads, uint64(20*(4-len(idle))); got != want {
			t.Fatalf("idle %v: loads = %d, want %d", idle, got, want)
		}
	}
}

// One thread's events are all its own: no hand-off at all.
func TestSingleThreadNeverHandsOff(t *testing.T) {
	m := New(DefaultConfig(1))
	a := m.Thread(0).Alloc(1)
	m.Run(func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Atomic(func() { th.Store(a, th.Load(a)+1) })
		}
	})
	if s := m.Stats(); s.Handoffs != 0 || s.TxCommits != 100 {
		t.Fatalf("stats = %+v", s)
	}
}

// A body that panics between TxBegin and TxEnd must not leave a phantom
// transaction on its hardware thread: the next Run on the machine stores and
// loads normally everywhere, and nobody conflicts with the dead footprint.
func TestPanicInsideAtomicLeavesNoTransaction(t *testing.T) {
	for _, model := range []string{ModelRTM, ModelBoundedSet} {
		cfg := DefaultConfig(4)
		cfg.Model = model
		m := New(cfg)
		a := m.Thread(0).Alloc(4 * LineWords)
		slot := func(id int) Addr { return a + Addr(id*LineWords) }
		if p := runRecovering(m, func(th *Thread) {
			th.Load(slot(th.ID()))
			if th.ID() == 0 {
				th.Atomic(func() {
					th.Store(slot(0), 99)
					th.Load(slot(1))
					panic("inside")
				})
			}
		}); p != "sim thread 0: inside" {
			t.Fatalf("%s: Run panicked with %v", model, p)
		}
		before := m.Stats()
		var sts [4]Status
		m.Run(func(th *Thread) {
			th.Store(slot(th.ID()), uint64(10+th.ID()))
			sts[th.ID()] = th.Atomic(func() {
				th.Store(slot(th.ID())+1, th.Load(slot(th.ID()))+1)
			})
		})
		after := m.Stats()
		if after.TxCommits-before.TxCommits != 4 || after.TxConflicts != before.TxConflicts {
			t.Fatalf("%s: second run: %+v after %+v, statuses %v", model, after, before, sts)
		}
		for i := 0; i < 4; i++ {
			if v, w := m.Thread(0).Load(slot(i)), m.Thread(0).Load(slot(i)+1); v != uint64(10+i) || w != v+1 {
				t.Fatalf("%s: thread %d's words = %d, %d", model, i, v, w)
			}
		}
	}
}

// A thread whose last event was executed by another body has finished in
// simulated time although its body has not yet returned, and its SMT sibling
// must be charged as alone on the core from then on. Threads 0 and 4 share a
// core; the one with the single long event is the one that finishes early.
//
// In the first case thread 0's Work(1000) is executed by thread 4's body
// (thread 0 becomes replied) and is inflated, thread 4 being live: ⌊(3+1000) ×
// 1.55⌋ = 1554. All five of thread 4's events come after it in (clock, id)
// order and must cost the plain 3+100: 515. A baton that executed them while
// thread 0 was still only replied would inflate each to ⌊103 × 1.55⌋ = 159,
// 795 in all — this is the case that fails without the sibling rule. In the
// mirror case thread 4 executes its own long event and finishes in its own
// body, so it passes with or without the rule: thread 0's first event
// precedes it (159) and the other four are plain (412).
func TestRepliedSiblingCountsAsFinished(t *testing.T) {
	for _, c := range []struct {
		long         int // the thread with one Work(1000); the other makes five Work(100)
		want0, want4 uint64
	}{
		{long: 0, want0: 1554, want4: 515},
		{long: 4, want0: 571, want4: 1554},
	} {
		m := New(DefaultConfig(5))
		m.Run(func(th *Thread) {
			switch th.ID() {
			case c.long:
				th.Work(1000)
			case 4 - c.long:
				for i := 0; i < 5; i++ {
					th.Work(100)
				}
			}
		})
		if got0, got4 := m.Thread(0).Now(), m.Thread(4).Now(); got0 != c.want0 || got4 != c.want4 {
			t.Errorf("long event on thread %d: clocks %d and %d, want %d and %d", c.long, got0, got4, c.want0, c.want4)
		}
	}
}

// A body may panic when it is resumed long after its last event was executed
// by another body. Thread 0 watches for thread 1 in that state (the
// machine's own record, which a body outside this package cannot see) to
// prove the test exercises it.
func TestPanicWhileReplied(t *testing.T) {
	start := runtime.NumGoroutine()
	m := New(DefaultConfig(2))
	a := m.Thread(0).Alloc(LineWords)
	sawReplied, finished := false, false
	p := runRecovering(m, func(th *Thread) {
		if th.ID() == 1 {
			th.Work(1000)
			th.Work(10)
			panic("late")
		}
		for i := 0; i < 2000; i++ {
			th.Load(a)
			sawReplied = sawReplied || m.threads[1].state == replied
		}
		finished = true
	})
	if p != "sim thread 1: late" {
		t.Fatalf("Run panicked with %v", p)
	}
	if !sawReplied || !finished {
		t.Fatalf("thread 1 seen replied: %v, thread 0 finished: %v", sawReplied, finished)
	}
	settleGoroutines(t, start)
}

// Every thread but one makes a single event, so the long-running thread keeps
// meeting threads that are replied and, once resumed, done.
func TestAllButOneFinishOnFirstEvent(t *testing.T) {
	start := runtime.NumGoroutine()
	for long := 0; long < 8; long++ {
		m := New(DefaultConfig(8))
		a := m.Thread(0).Alloc(LineWords)
		m.Run(func(th *Thread) {
			th.Work(uint64(10 * (1 + th.ID())))
			if th.ID() == long {
				for i := 0; i < 200; i++ {
					th.Store(a, th.Load(a)+1)
				}
			}
		})
		if got := m.Thread(0).Load(a); got != 200 {
			t.Fatalf("long thread %d: counter = %d, want 200", long, got)
		}
		if s := m.Stats(); s.Loads != 200 || s.Handoffs > 16 {
			t.Fatalf("long thread %d: stats %+v", long, s)
		}
	}
	settleGoroutines(t, start)
}
