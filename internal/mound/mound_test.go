package mound

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

func variants() map[string]*Mound {
	return map[string]*Mound{
		"lockfree": New(12),
		"pto":      NewPTO(12, 0),
	}
}

func TestEmpty(t *testing.T) {
	for name, m := range variants() {
		if _, ok := m.RemoveMin(); ok {
			t.Errorf("%s: removeMin on empty returned a value", name)
		}
		if m.Len() != 0 {
			t.Errorf("%s: len = %d on empty", name, m.Len())
		}
	}
}

func TestOrdering(t *testing.T) {
	for name, m := range variants() {
		in := []int64{5, 1, 9, 1, 3, 7, 0, 2}
		for _, v := range in {
			m.Insert(v)
		}
		if m.Len() != len(in) {
			t.Fatalf("%s: len = %d, want %d", name, m.Len(), len(in))
		}
		sorted := append([]int64{}, in...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, want := range sorted {
			v, ok := m.RemoveMin()
			if !ok || v != want {
				t.Fatalf("%s: pop %d = %d,%v, want %d", name, i, v, ok, want)
			}
		}
		if _, ok := m.RemoveMin(); ok {
			t.Fatalf("%s: not empty after drain", name)
		}
	}
}

func TestDuplicates(t *testing.T) {
	for name, m := range variants() {
		for i := 0; i < 40; i++ {
			m.Insert(6)
		}
		for i := 0; i < 40; i++ {
			if v, ok := m.RemoveMin(); !ok || v != 6 {
				t.Fatalf("%s: duplicate %d lost (%d,%v)", name, i, v, ok)
			}
		}
	}
}

func TestQuickHeapProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		for name, m := range variants() {
			sorted := make([]int64, len(vals))
			for i, v := range vals {
				m.Insert(int64(v))
				sorted[i] = int64(v)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for i, want := range sorted {
				v, ok := m.RemoveMin()
				if !ok || v != want {
					t.Logf("%s: pop %d = %d,%v, want %d", name, i, v, ok, want)
					return false
				}
			}
			if _, ok := m.RemoveMin(); ok {
				t.Logf("%s: residue after drain", name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGrowthUnderLoad(t *testing.T) {
	m := New(12)
	// Ascending inserts force probes to fail (occupied leaves hold smaller
	// heads), exercising depth growth. Each ascending insert occupies a
	// fresh node, so the tree must be deep enough to hold them all.
	for v := int64(0); v < 3000; v++ {
		m.Insert(v)
	}
	if m.Depth() <= 2 {
		t.Errorf("depth never grew: %d", m.Depth())
	}
	if m.Len() != 3000 {
		t.Fatalf("len = %d, want 3000", m.Len())
	}
	prev := int64(-1)
	for i := 0; i < 3000; i++ {
		v, ok := m.RemoveMin()
		if !ok || v < prev {
			t.Fatalf("pop %d = %d,%v after %d", i, v, ok, prev)
		}
		prev = v
	}
}

// TestConcurrentConservation pushes a known multiset concurrently with pops;
// the union of popped values and the drain must equal the pushes exactly.
func TestConcurrentConservation(t *testing.T) {
	for name, m := range variants() {
		m := m
		t.Run(name, func(t *testing.T) {
			const pushers, per = 4, 400
			counts := make([]atomic.Int32, pushers*per)
			var wg sync.WaitGroup
			for p := 0; p < pushers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m.Insert(int64(p*per + i))
					}
				}(p)
			}
			var popped atomic.Int64
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for popped.Load() < pushers*per/2 {
						if v, ok := m.RemoveMin(); ok {
							counts[v].Add(1)
							popped.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			for {
				v, ok := m.RemoveMin()
				if !ok {
					break
				}
				counts[v].Add(1)
			}
			for v := range counts {
				if c := counts[v].Load(); c != 1 {
					t.Fatalf("value %d popped %d times", v, c)
				}
			}
		})
	}
}

// TestConcurrentQuiescentOrdering checks ascending pops once pushing stops.
func TestConcurrentQuiescentOrdering(t *testing.T) {
	for name, m := range variants() {
		m := m
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for p := 0; p < 4; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(int64(p)))
					for i := 0; i < 400; i++ {
						m.Insert(int64(rnd.Intn(5000)))
					}
				}(p)
			}
			wg.Wait()
			prev := int64(-1)
			n := 0
			for {
				v, ok := m.RemoveMin()
				if !ok {
					break
				}
				if v < prev {
					t.Fatalf("pop %d after %d", v, prev)
				}
				prev = v
				n++
			}
			if n != 4*400 {
				t.Fatalf("drained %d, want %d", n, 4*400)
			}
		})
	}
}

// TestConcurrentMixed stresses simultaneous inserts and removes.
func TestConcurrentMixed(t *testing.T) {
	for name, m := range variants() {
		m := m
		t.Run(name, func(t *testing.T) {
			var pushes, pops atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < 6; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(int64(p * 3)))
					for i := 0; i < 600; i++ {
						if rnd.Intn(2) == 0 {
							m.Insert(int64(rnd.Intn(10000)))
							pushes.Add(1)
						} else if _, ok := m.RemoveMin(); ok {
							pops.Add(1)
						}
					}
				}(p)
			}
			wg.Wait()
			if got := int64(m.Len()); got != pushes.Load()-pops.Load() {
				t.Fatalf("len = %d, want %d", got, pushes.Load()-pops.Load())
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

func TestPTOStats(t *testing.T) {
	pol, reg := metered()
	m := NewPTO(8, 0).WithPolicy(pol)
	basePol, baseReg := metered()
	if New(8).WithPolicy(basePol); len(baseReg.Sites()) != 0 {
		t.Error("baseline mound registered a speculation site")
	}
	var wg sync.WaitGroup
	for p := 0; p < 6; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < 400; i++ {
				if rnd.Intn(2) == 0 {
					m.Insert(int64(rnd.Intn(1000)))
				} else {
					m.RemoveMin()
				}
			}
		}(p)
	}
	wg.Wait()
	s := reg.Site("mound/dcas").Snapshot()
	t.Logf("dcas commits=%d fallbacks=%d aborts=%d", s.Commits, s.Fallbacks, s.Attempts-s.Commits)
	if s.Commits == 0 {
		t.Error("no DCAS ever committed speculatively")
	}
}

func TestCapacityExhaustionPanics(t *testing.T) {
	m := New(2) // 7 nodes
	defer func() {
		if recover() == nil {
			t.Fatal("saturated mound did not panic")
		}
	}()
	for v := int64(0); v < 100; v++ {
		m.Insert(v) // ascending values occupy one node each
	}
}

func TestValueRangePanics(t *testing.T) {
	m := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("negative value did not panic")
		}
	}()
	m.Insert(-1)
}
