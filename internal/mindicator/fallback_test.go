package mindicator

import (
	"math/rand"
	"sync"
	"testing"
)

// Crushing the transactional read capacity forces the PTO mindicator onto
// its fallback: the original mark-up/validate-down protocol over Vars.

func TestFallbackForced(t *testing.T) {
	pol, reg := metered()
	p := NewPTO(16, 0).WithPolicy(pol)
	p.Domain().SetCapacity(1, 1)
	var wg sync.WaitGroup
	final := make([]int32, 16)
	for s := 0; s < 16; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < 150; i++ {
				p.Arrive(s, int32(rnd.Intn(2000)-1000))
				p.Depart(s)
			}
			final[s] = int32(rnd.Intn(2000) - 1000)
			p.Arrive(s, final[s])
		}(s)
	}
	wg.Wait()
	want := final[0]
	for _, v := range final {
		if v < want {
			want = v
		}
	}
	if got, ok := p.Query(); !ok || got != want {
		t.Fatalf("query = %d,%v, want %d", got, ok, want)
	}
	s := reg.Site("mindicator/update").Snapshot()
	if s.Fallbacks == 0 || s.Fallbacks < s.Commits {
		t.Fatalf("fallbacks did not dominate: commits=%d fallbacks=%d", s.Commits, s.Fallbacks)
	}
	for s := 0; s < 16; s++ {
		p.Depart(s)
	}
	if _, ok := p.Query(); ok {
		t.Fatal("non-empty after all departs")
	}
}
