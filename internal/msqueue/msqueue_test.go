package msqueue

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/speculate"
	"repro/internal/telemetry"
)

type queueIface interface {
	Enqueue(v int64)
	Dequeue() (int64, bool)
	Len() int
}

func variants() map[string]queueIface {
	return map[string]queueIface{
		"lockfree": New(),
		"pto":      NewPTO(0),
	}
}

func TestFIFOOrder(t *testing.T) {
	for name, q := range variants() {
		if _, ok := q.Dequeue(); ok {
			t.Errorf("%s: dequeue on empty returned a value", name)
		}
		for i := int64(0); i < 100; i++ {
			q.Enqueue(i)
		}
		if q.Len() != 100 {
			t.Errorf("%s: len = %d, want 100", name, q.Len())
		}
		for i := int64(0); i < 100; i++ {
			v, ok := q.Dequeue()
			if !ok || v != i {
				t.Fatalf("%s: dequeue %d = %d,%v", name, i, v, ok)
			}
		}
		if _, ok := q.Dequeue(); ok {
			t.Errorf("%s: residue after drain", name)
		}
	}
}

func TestInterleavedEnqueueDequeue(t *testing.T) {
	for name, q := range variants() {
		next := int64(0)
		for round := 0; round < 50; round++ {
			for i := 0; i < 3; i++ {
				q.Enqueue(int64(round*3 + i))
			}
			v, ok := q.Dequeue()
			if !ok || v != next {
				t.Fatalf("%s: dequeue = %d,%v, want %d", name, v, ok, next)
			}
			next++
		}
	}
}

func TestQuickMatchesSliceModel(t *testing.T) {
	f := func(ops []int16) bool {
		for name, q := range variants() {
			var model []int64
			for _, op := range ops {
				if op >= 0 {
					q.Enqueue(int64(op))
					model = append(model, int64(op))
				} else {
					v, ok := q.Dequeue()
					wantOK := len(model) > 0
					if ok != wantOK {
						t.Logf("%s: dequeue ok=%v, want %v", name, ok, wantOK)
						return false
					}
					if ok {
						if v != model[0] {
							t.Logf("%s: dequeue = %d, want %d", name, v, model[0])
							return false
						}
						model = model[1:]
					}
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentConservation runs an MPMC stress: every enqueued value is
// dequeued exactly once.
func TestConcurrentConservation(t *testing.T) {
	for name, q := range variants() {
		q := q
		t.Run(name, func(t *testing.T) {
			const producers, consumers, per = 4, 4, 1500
			seen := make([]atomic.Int32, producers*per)
			var count atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q.Enqueue(int64(p*per + i))
					}
				}(p)
			}
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for count.Load() < producers*per {
						v, ok := q.Dequeue()
						if !ok {
							continue
						}
						count.Add(1)
						if seen[v].Add(1) != 1 {
							t.Errorf("value %d dequeued twice", v)
							return
						}
					}
				}()
			}
			wg.Wait()
			if count.Load() != producers*per {
				t.Fatalf("dequeued %d values, want %d", count.Load(), producers*per)
			}
			if q.Len() != 0 {
				t.Fatalf("queue not empty after drain")
			}
		})
	}
}

// TestPerProducerOrder uses a single consumer, for which FIFO
// linearizability implies each producer's values appear in production order.
func TestPerProducerOrder(t *testing.T) {
	for name, q := range variants() {
		q := q
		t.Run(name, func(t *testing.T) {
			const producers, per = 4, 1200
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q.Enqueue(int64(p*per + i))
					}
				}(p)
			}
			last := make([]int64, producers)
			for i := range last {
				last[i] = -1
			}
			got := 0
			for got < producers*per {
				v, ok := q.Dequeue()
				if !ok {
					continue
				}
				p, i := v/per, v%per
				if i <= last[p] {
					t.Fatalf("producer %d: value %d after %d", p, i, last[p])
				}
				last[p] = i
				got++
			}
			wg.Wait()
		})
	}
}

// metered returns a PTO queue recording into a fresh registry, and the
// registry.
func metered() (*PTOQueue, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return NewPTO(0).WithPolicy(speculate.Fixed(0).WithMetrics(reg)), reg
}

func TestPTOStats(t *testing.T) {
	q, reg := metered()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if i%2 == 0 {
					q.Enqueue(int64(i))
				} else {
					q.Dequeue()
				}
			}
		}(w)
	}
	wg.Wait()
	e := reg.Site("msqueue/enqueue").Snapshot()
	d := reg.Site("msqueue/dequeue").Snapshot()
	if e.Commits == 0 || d.Commits == 0 {
		t.Errorf("no speculative commits: enq=%d deq=%d", e.Commits, d.Commits)
	}
	t.Logf("enq commits=%d fallbacks=%d; deq commits=%d fallbacks=%d", e.Commits, e.Fallbacks, d.Commits, d.Fallbacks)
}

// TestBaselineHelpingHappens drives the baseline with the mix that leaves
// tails lagging — eight workers, each enqueue followed by a dequeue — so
// enqueuers and dequeuers help swing the tail. It checks what that helping
// must preserve: a worker's dequeue always follows its own enqueue, so
// every dequeue finds a value, and the queue ends empty.
func TestBaselineHelpingHappens(t *testing.T) {
	q := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				q.Enqueue(int64(i))
				if _, ok := q.Dequeue(); !ok {
					t.Error("dequeue found the queue empty after this worker's enqueue")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := q.Len(); n != 0 {
		t.Fatalf("queue holds %d values after every enqueue was dequeued", n)
	}
}
