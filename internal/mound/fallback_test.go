package mound

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// Crushing the transactional read capacity makes every DCAS/DCSS transaction
// abort, so the PTO mound runs its fallback — htm.MultiCAS over the
// transactional words — for every multi-word update.

func TestFallbackDCASForced(t *testing.T) {
	pol, reg := metered()
	m := NewPTO(12, 0).WithPolicy(pol)
	m.Domain().SetCapacity(1, 1)
	in := make([]int64, 0, 600)
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		v := int64(rnd.Intn(10000))
		m.Insert(v)
		in = append(in, v)
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	for i, want := range in {
		v, ok := m.RemoveMin()
		if !ok || v != want {
			t.Fatalf("pop %d = %d,%v, want %d", i, v, ok, want)
		}
	}
	s := reg.Site("mound/dcas").Snapshot()
	if s.Fallbacks == 0 || s.Fallbacks < s.Commits {
		t.Fatalf("fallbacks did not dominate: commits=%d fallbacks=%d", s.Commits, s.Fallbacks)
	}
}

func TestFallbackDCASConcurrent(t *testing.T) {
	m := NewPTO(12, 0)
	m.Domain().SetCapacity(1, 1)
	var pushes, pops int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g * 7)))
			localPush, localPop := int64(0), int64(0)
			for i := 0; i < 500; i++ {
				if rnd.Intn(2) == 0 {
					m.Insert(int64(rnd.Intn(10000)))
					localPush++
				} else if _, ok := m.RemoveMin(); ok {
					localPop++
				}
			}
			mu.Lock()
			pushes += localPush
			pops += localPop
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if got := int64(m.Len()); got != pushes-pops {
		t.Fatalf("len = %d, want %d", got, pushes-pops)
	}
}
