package skiplist

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// setIface abstracts the two set variants for shared semantic tests.
type setIface interface {
	Insert(key int64) bool
	Remove(key int64) bool
	Contains(key int64) bool
	Len() int
	Keys() []int64
}

func setVariants() map[string]setIface {
	return map[string]setIface{
		"lockfree": NewSet(),
		"pto":      NewPTOSet(0),
	}
}

func TestSetBasic(t *testing.T) {
	for name, s := range setVariants() {
		if s.Contains(5) {
			t.Errorf("%s: empty set contains 5", name)
		}
		if !s.Insert(5) || !s.Insert(3) || !s.Insert(8) {
			t.Errorf("%s: fresh inserts failed", name)
		}
		if s.Insert(5) {
			t.Errorf("%s: duplicate insert succeeded", name)
		}
		if !s.Contains(5) || !s.Contains(3) || !s.Contains(8) || s.Contains(4) {
			t.Errorf("%s: contains wrong", name)
		}
		if !s.Remove(3) {
			t.Errorf("%s: remove of present key failed", name)
		}
		if s.Remove(3) {
			t.Errorf("%s: double remove succeeded", name)
		}
		if s.Contains(3) {
			t.Errorf("%s: contains removed key", name)
		}
		if got := s.Keys(); len(got) != 2 || got[0] != 5 || got[1] != 8 {
			t.Errorf("%s: keys = %v, want [5 8]", name, got)
		}
	}
}

func TestSetOrderedTraversal(t *testing.T) {
	for name, s := range setVariants() {
		perm := rand.New(rand.NewSource(1)).Perm(200)
		for _, k := range perm {
			s.Insert(int64(k))
		}
		keys := s.Keys()
		if len(keys) != 200 {
			t.Fatalf("%s: len = %d, want 200", name, len(keys))
		}
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Errorf("%s: traversal not sorted", name)
		}
	}
}

func TestQuickSetMatchesMap(t *testing.T) {
	f := func(ops []int16) bool {
		for name, s := range setVariants() {
			model := make(map[int64]bool)
			for _, op := range ops {
				k := int64(op >> 2)
				switch op & 3 {
				case 0, 1:
					if s.Insert(k) != !model[k] {
						t.Logf("%s: insert(%d) disagreed with model", name, k)
						return false
					}
					model[k] = true
				case 2:
					if s.Remove(k) != model[k] {
						t.Logf("%s: remove(%d) disagreed with model", name, k)
						return false
					}
					delete(model, k)
				case 3:
					if s.Contains(k) != model[k] {
						t.Logf("%s: contains(%d) disagreed with model", name, k)
						return false
					}
				}
			}
			if s.Len() != len(model) {
				t.Logf("%s: len = %d, model %d", name, s.Len(), len(model))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentDistinctInserts has each goroutine insert a disjoint key
// range; everything must be present and ordered afterwards.
func TestConcurrentDistinctInserts(t *testing.T) {
	for name, s := range setVariants() {
		s := s
		t.Run(name, func(t *testing.T) {
			const g, per = 8, 300
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < per; k++ {
						if !s.Insert(int64(i*per + k)) {
							t.Errorf("insert of distinct key failed")
							return
						}
					}
				}(i)
			}
			wg.Wait()
			keys := s.Keys()
			if len(keys) != g*per {
				t.Fatalf("len = %d, want %d", len(keys), g*per)
			}
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					t.Fatal("keys out of order")
				}
			}
		})
	}
}

// TestConcurrentInsertRemoveContention hammers a small key range from many
// goroutines, counting successful inserts/removes per key; at quiescence,
// presence must equal (inserts - removes) ∈ {0,1} per key.
func TestConcurrentInsertRemoveContention(t *testing.T) {
	for name, s := range setVariants() {
		s := s
		t.Run(name, func(t *testing.T) {
			const keys = 16
			const g = 8
			var ins, rem [keys]atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(int64(i)))
					for n := 0; n < 2000; n++ {
						k := rnd.Intn(keys)
						if rnd.Intn(2) == 0 {
							if s.Insert(int64(k)) {
								ins[k].Add(1)
							}
						} else {
							if s.Remove(int64(k)) {
								rem[k].Add(1)
							}
						}
					}
				}(i)
			}
			wg.Wait()
			for k := 0; k < keys; k++ {
				diff := ins[k].Load() - rem[k].Load()
				if diff != 0 && diff != 1 {
					t.Fatalf("key %d: inserts-removes = %d, want 0 or 1", k, diff)
				}
				if (diff == 1) != s.Contains(int64(k)) {
					t.Fatalf("key %d: presence %v disagrees with diff %d", k, s.Contains(int64(k)), diff)
				}
			}
		})
	}
}

// metered returns the policy recording into a fresh registry, and the
// registry.
func metered() (speculate.Policy, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return speculate.Fixed(0).WithMetrics(reg), reg
}

func TestPTOSetUsesTransactionsAndFallbacks(t *testing.T) {
	pol, reg := metered()
	s := NewPTOSet(0).WithPolicy(pol)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < 1000; n++ {
				k := int64(rnd.Intn(64))
				if rnd.Intn(2) == 0 {
					s.Insert(k)
				} else {
					s.Remove(k)
				}
			}
		}(i)
	}
	wg.Wait()
	if reg.Site("skiplist/insert").Snapshot().Commits == 0 {
		t.Error("no insert ever committed speculatively")
	}
	d := s.Domain().Stats()
	t.Logf("domain stats: %+v", d)
}

// queueIface abstracts the two queue variants.
type queueIface interface {
	Push(prio int64)
	Pop() (int64, bool)
	Len() int
}

func queueVariants() map[string]queueIface {
	return map[string]queueIface{
		"lockfree": NewQueue(),
		"pto":      NewPTOQueue(0),
	}
}

func TestQueueBasicOrdering(t *testing.T) {
	for name, q := range queueVariants() {
		if _, ok := q.Pop(); ok {
			t.Errorf("%s: pop on empty returned a value", name)
		}
		for _, v := range []int64{5, 1, 9, 1, 3} {
			q.Push(v)
		}
		want := []int64{1, 1, 3, 5, 9}
		for i, w := range want {
			v, ok := q.Pop()
			if !ok || v != w {
				t.Fatalf("%s: pop %d = %d,%v, want %d", name, i, v, ok, w)
			}
		}
		if _, ok := q.Pop(); ok {
			t.Errorf("%s: queue not empty after draining", name)
		}
	}
}

func TestQueueDuplicatesPreserved(t *testing.T) {
	for name, q := range queueVariants() {
		for i := 0; i < 50; i++ {
			q.Push(7)
		}
		for i := 0; i < 50; i++ {
			if v, ok := q.Pop(); !ok || v != 7 {
				t.Fatalf("%s: duplicate %d lost", name, i)
			}
		}
	}
}

// TestQueueConcurrentConservation pushes a known multiset from several
// goroutines while others pop; afterwards pops+remainder must equal pushes.
func TestQueueConcurrentConservation(t *testing.T) {
	for name, q := range queueVariants() {
		q := q
		t.Run(name, func(t *testing.T) {
			const pushers, pops, per = 4, 4, 500
			var popped sync.Map
			var popCount atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < pushers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q.Push(int64(p*per + i))
					}
				}(p)
			}
			for c := 0; c < pops; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for popCount.Load() < pushers*per/2 {
						if v, ok := q.Pop(); ok {
							if _, dup := popped.LoadOrStore(v, true); dup {
								t.Errorf("value %d popped twice", v)
								return
							}
							popCount.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			// Drain the remainder and check the union is exactly the pushes.
			for {
				v, ok := q.Pop()
				if !ok {
					break
				}
				if _, dup := popped.LoadOrStore(v, true); dup {
					t.Fatalf("value %d popped twice during drain", v)
				}
				popCount.Add(1)
			}
			if popCount.Load() != pushers*per {
				t.Fatalf("popped %d values, want %d", popCount.Load(), pushers*per)
			}
		})
	}
}

// TestQueueQuiescentMinimality checks pops return ascending values once
// pushing has stopped.
func TestQueueQuiescentMinimality(t *testing.T) {
	for name, q := range queueVariants() {
		q := q
		t.Run(name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(3))
			var wg sync.WaitGroup
			for p := 0; p < 4; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(p)))
					for i := 0; i < 300; i++ {
						q.Push(int64(r.Intn(10000)))
					}
				}(p)
			}
			wg.Wait()
			_ = rnd
			prev := int64(-1)
			for {
				v, ok := q.Pop()
				if !ok {
					break
				}
				if v < prev {
					t.Fatalf("pop sequence not ascending at quiescence: %d after %d", v, prev)
				}
				prev = v
			}
		})
	}
}

func TestPTOQueueStats(t *testing.T) {
	q := NewPTOQueue(0)
	pol, reg := metered()
	q.Set().WithPolicy(pol)
	var wg sync.WaitGroup
	for p := 0; p < 6; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < 400; i++ {
				if r.Intn(2) == 0 {
					q.Push(int64(r.Intn(1000)))
				} else {
					q.Pop()
				}
			}
		}(p)
	}
	wg.Wait()
	if reg.Site("skiplist/pop").Snapshot().Commits == 0 {
		t.Error("no pop ever committed speculatively")
	}
}

func TestPriorityRangePanics(t *testing.T) {
	q := NewQueue()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range priority did not panic")
		}
	}()
	q.Push(-1)
}
