package sim

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_schedule.txt from this build")

// goldenSchedule runs a seeded mix of every event kind — plain and
// transactional, contended and private, committing, conflicting, overflowing
// and self-aborting — on up to 8 threads over two Runs of one machine, and
// prints each thread's final clock and the machine's event counts. Any change
// to the event order or to a cost shows up in it.
func goldenSchedule(model string, threads int) (string, Stats) {
	cfg := DefaultConfig(threads)
	cfg.Model = model
	cfg.Seed = 13
	m := New(cfg)
	setup := m.Thread(0)
	const sharedLines = 24
	shared := setup.Alloc(sharedLines * LineWords)
	big := setup.Alloc(700 * LineWords) // more lines than the L1 holds
	for i := 0; i < sharedLines; i++ {
		setup.Store(shared+Addr(i*LineWords), uint64(i))
	}
	var statuses [8][4]int
	body := func(t *Thread) {
		own := t.Alloc(2 * LineWords)
		for i := 0; i < 400; i++ {
			r := t.Rand()
			s := shared + Addr(r>>8%sharedLines*LineWords)
			switch r % 12 {
			case 0, 1:
				t.Store(own, t.Load(s)+1)
			case 2:
				t.Store(s, r)
			case 3:
				t.CAS(s, t.Load(s), r)
			case 4:
				t.Fence()
				t.Work(r >> 40 % 50)
			case 5:
				a := t.Alloc(int(r>>16%20) + 1)
				t.Store(a, r)
				t.Free(a, 1)
			case 6:
				t.Store(t.AllocLocal(3), r)
			case 7, 8:
				statuses[t.ID()][t.Atomic(func() {
					t.Store(own+1, t.Load(s)+t.Load(own))
					t.Store(s+1, r)
				})]++
			case 9:
				statuses[t.ID()][t.Atomic(func() {
					t.Store(s, t.Load(s)+1)
					if r>>20%3 == 0 {
						t.TxAbort(int(r >> 24 % 7))
					}
					if r>>20%3 == 1 {
						t.TxAbortCapacity()
					}
					t.Store(own, 1)
				})]++
			case 10:
				// A read set that sweeps past the L1 after one write.
				statuses[t.ID()][t.Atomic(func() {
					t.Store(own, r)
					for j := 0; j < int(r>>30%700); j += 3 {
						t.Load(big + Addr(j*LineWords))
					}
				})]++
			case 11:
				for j := 0; j < 4; j++ {
					t.Load(shared + Addr((int(r>>12)+j)%sharedLines*LineWords))
				}
			}
		}
	}
	m.Run(body)
	m.Run(body)
	var b strings.Builder
	fmt.Fprintf(&b, "model %s\n", m.Model().Name())
	for i := 0; i < threads; i++ {
		fmt.Fprintf(&b, "thread %d clock %d statuses %v\n", i, m.Thread(i).Now(), statuses[i])
	}
	s := m.Stats()
	fmt.Fprintf(&b, "loads %d stores %d cas %d fences %d allocs %d frees %d commits %d conflicts %d capacity %d explicit %d\n",
		s.Loads, s.Stores, s.CASes, s.Fences, s.Allocs, s.Frees, s.TxCommits, s.TxConflicts, s.TxCapacity, s.TxExplicit)
	var sum uint64
	for i := 0; i < sharedLines*LineWords; i++ {
		sum = sum*31 + setup.Load(shared+Addr(i))
	}
	fmt.Fprintf(&b, "memory %d\n", sum)
	return b.String(), s
}

// TestGoldenSchedule pins the machine's schedule to the one recorded at the
// commit before the scheduler goroutine was removed (ISSUE 13), on both HTM
// models and on one and eight Ps: neither the host's parallelism nor the order
// in which the baton resumes bodies may reach the simulated order.
func TestGoldenSchedule(t *testing.T) {
	const path = "testdata/golden_schedule.txt"
	gen := func() string {
		rtm, _ := goldenSchedule(ModelRTM, 8)
		bounded, _ := goldenSchedule(ModelBoundedSet, 8)
		return rtm + bounded
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(gen()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := gen()
		runtime.GOMAXPROCS(prev)
		if got != string(want) {
			t.Errorf("GOMAXPROCS=%d: schedule differs from %s:\n%s\nwant:\n%s", procs, path, got, want)
		}
	}
}

// The baton's wake-ups are as deterministic as the schedule, so they are
// pinned too. With one thread per core a wake-up delivers a reply to a thread
// that is the global minimum and therefore executes its next event itself: at
// most one hand-off per two events. With SMT siblings the sibling rule resumes
// threads that are not the minimum, which costs more, but fewer than the one
// hand-off per event executed by another body of the eager baton this one
// replaced (its count on this workload is the second number). The count is
// the same whichever baton file is built.
func TestGoldenHandoffs(t *testing.T) {
	for _, c := range []struct {
		threads      int
		want, before uint64
	}{
		{4, 10301, 24421},
		{8, 34285, 52141},
	} {
		_, s := goldenSchedule(ModelRTM, c.threads)
		events := s.Loads + s.Stores + s.CASes + s.Fences + s.Allocs + s.Frees // Work and tx boundaries are events too
		t.Logf("%d threads: %d hand-offs for %d counted events (%.3f)", c.threads, s.Handoffs, events, float64(s.Handoffs)/float64(events))
		if s.Handoffs != c.want || s.Handoffs >= c.before {
			t.Errorf("%d threads: %d hand-offs, want %d (eager baton: %d)", c.threads, s.Handoffs, c.want, c.before)
		}
		if c.threads <= 4 && 2*s.Handoffs > events {
			t.Errorf("%d threads, no siblings: %d hand-offs for %d events, want at most one per two", c.threads, s.Handoffs, events)
		}
	}
}
