package sim

import "testing"

// Host-speed benchmarks and allocation pins of the simulator itself: what one
// setup-mode access, one event, one hand-off and one transaction cost the
// host. ns/op is per access, event, hand-off and transaction respectively,
// machine-wide.

var sink uint64

func BenchmarkDirectLoad(b *testing.B) {
	m := New(DefaultConfig(1))
	th := m.Thread(0)
	a := th.Alloc(LineWords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += th.Load(a + Addr(i%LineWords))
	}
}

// One committing setup-mode transaction of two loads, two stores and a CAS.
func BenchmarkDirectAtomic(b *testing.B) {
	m := New(DefaultConfig(1))
	th := m.Thread(0)
	a := th.Alloc(LineWords)
	tx := func() {
		th.Store(a, th.Load(a)+1)
		th.Store(a+1, th.Load(a))
		th.CAS(a+2, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(tx)
	}
}

// benchRun times one Run of per(t, iters) on n threads, iters chosen so that
// the run makes about b.N units of work in all, and reports the baton's
// hand-offs per unit.
func benchRun(b *testing.B, n int, per func(t *Thread, shared Addr, iters int)) {
	m := New(DefaultConfig(n))
	shared := m.Thread(0).Alloc(LineWords)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(t *Thread) { per(t, shared, b.N/n+1) })
	b.StopTimer()
	b.ReportMetric(float64(m.Stats().Handoffs)/float64(b.N), "handoffs/op")
}

// eventLoop is four events an iteration: a load and a store on the thread's
// own line, a CAS on a line every thread shares, and a fence. Every thread
// makes the same events at the same clocks, which is the baton's worst case:
// at 8 threads nearly every event finds its SMT sibling replied, and the
// sibling rule's wake-up delivers one reply and no event (0.84 hand-offs per
// event here, 3.2 per six-event transaction in BenchmarkTx8T, against 0.46
// per event over the paper's figures).
func eventLoop(t *Thread, shared Addr, iters int) {
	own := t.Alloc(LineWords)
	for i := 0; i < iters; i += 4 {
		v := t.Load(own)
		t.Store(own, v+1)
		t.CAS(shared, v, uint64(i))
		t.Fence()
	}
}

func BenchmarkEvent1T(b *testing.B) { benchRun(b, 1, eventLoop) }
func BenchmarkEvent8T(b *testing.B) { benchRun(b, 8, eventLoop) }

// The hand-off itself: two threads on different cores take turns at one
// shared line, each iteration a load of it (an L1 hit) and a 100-cycle Work,
// thread 1 half an iteration behind. The events then run in the order 0 0 1 1
// 0 0 ..., and a woken thread executes its own next event and the pending one
// of the thread that woke it, then meets that thread replied: one hand-off
// per iteration, the most two threads can make (every wake-up executes at
// least those two events). ns/op is one hand-off plus two events
// (BenchmarkEvent1T is an event alone).
func BenchmarkHandoff(b *testing.B) {
	benchRun(b, 2, func(t *Thread, shared Addr, iters int) {
		if t.ID() == 1 {
			t.Work(50)
		}
		for i := 0; i < iters; i++ {
			sink += t.Load(shared)
			t.Work(100)
		}
	})
}

func BenchmarkTx8T(b *testing.B) {
	benchRun(b, 8, func(t *Thread, shared Addr, iters int) {
		own := t.Alloc(LineWords)
		i := 0
		tx := func() {
			t.Store(own, t.Load(own)+1)
			if i%8 == 0 {
				t.Store(shared, t.Load(shared)+1)
			}
		}
		for ; i < iters; i++ {
			t.Atomic(tx)
		}
	})
}

func TestSetupAccessDoesNotAllocate(t *testing.T) {
	m := New(DefaultConfig(2))
	th := m.Thread(0)
	a := th.Alloc(LineWords)
	if n := testing.AllocsPerRun(100, func() {
		th.Store(a, th.Load(a)+1)
		th.CAS(a+1, 0, 1)
	}); n != 0 {
		t.Fatalf("setup-mode Load+Store+CAS: %v allocs, want 0", n)
	}
	// In steady state (the undo log grown once) nor does a setup-mode
	// transaction that commits.
	tx := func() {
		th.Store(a+2, th.Load(a)+1)
		th.Store(a+2, th.Load(a+2)+1)
		th.CAS(a+3, th.Load(a+3), 7)
	}
	th.Atomic(tx)
	if n := testing.AllocsPerRun(100, func() {
		if st := th.Atomic(tx); st != OK {
			panic(st)
		}
	}); n != 0 {
		t.Fatalf("setup-mode Atomic: %v allocs, want 0", n)
	}
}

// In steady state — the page touched, the line cached, the transaction's sets
// grown once — neither an event nor a committed transaction allocates, with
// the event's owner running it (1 thread) or another body (2 threads, the
// second one loading in a loop until the first is done).
func TestEventsDoNotAllocate(t *testing.T) {
	for _, n := range []int{1, 2} {
		m := New(DefaultConfig(n))
		a := m.Thread(0).Alloc(2 * LineWords)
		stop := a + LineWords
		var load, tx float64
		m.Run(func(th *Thread) {
			if th.ID() == 1 {
				for th.Load(stop) == 0 {
				}
				return
			}
			load = testing.AllocsPerRun(100, func() { th.Load(a) })
			body := func() {
				th.Store(a+1, th.Load(a)+1)
				th.Store(a+2, th.Load(a+1))
			}
			th.Atomic(body)
			tx = testing.AllocsPerRun(100, func() {
				if st := th.Atomic(body); st != OK {
					panic(st)
				}
			})
			th.Store(stop, 1)
		})
		if load != 0 || tx != 0 {
			t.Errorf("%d threads: %v allocs per Load, %v per Atomic, want 0", n, load, tx)
		}
		if n == 2 && m.Stats().Handoffs == 0 {
			t.Error("2 threads: no hand-off was exercised")
		}
	}
}
