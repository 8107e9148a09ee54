package bst

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// Fallback-path tests: crushing the transactional read capacity makes every
// prefix transaction abort, so the operations run the Var-based Ellen et al.
// fallback protocol (flags, helping, backtracking, splicing) — code that
// quiet tests rarely reach because the software TM seldom aborts.

func TestFallbackPathsForced(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewPTO12().WithPolicy(speculate.Fixed(0).WithMetrics(reg))
	s.Domain().SetCapacity(1, 1)
	model := make(map[int64]bool)
	rnd := rand.New(rand.NewSource(42))
	for i := 0; i < 4000; i++ {
		k := int64(rnd.Intn(64))
		switch rnd.Intn(3) {
		case 0:
			if s.Insert(k) != !model[k] {
				t.Fatalf("insert(%d) disagreed with model at op %d", k, i)
			}
			model[k] = true
		case 1:
			if s.Remove(k) != model[k] {
				t.Fatalf("remove(%d) disagreed with model at op %d", k, i)
			}
			delete(model, k)
		default:
			if s.Contains(k) != model[k] {
				t.Fatalf("contains(%d) disagreed with model at op %d", k, i)
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("len = %d, model %d", s.Len(), len(model))
	}
	_, fallbacks, _ := ptoCounts(reg)
	if fallbacks < 1000 {
		t.Fatalf("capacity crush did not force fallbacks (%d)", fallbacks)
	}
}

// TestFallbackConcurrentHelping runs contended mutators with transactions
// disabled so the fallback's flag/help/backtrack paths interleave for real.
func TestFallbackConcurrentHelping(t *testing.T) {
	s := NewPTO12()
	s.Domain().SetCapacity(1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 1500; i++ {
				k := int64(rnd.Intn(16))
				if rnd.Intn(2) == 0 {
					s.Insert(k)
				} else {
					s.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("in-order traversal not sorted after contended fallback run")
		}
	}
}

// TestZeroBudgetTreeIsPureFallback: NewPTO(0,0) disables both levels, so
// the tree is exactly the original algorithm over transactional Vars.
func TestZeroBudgetTreeIsPureFallback(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewPTO(0, 0).WithPolicy(speculate.Fixed(0).WithMetrics(reg))
	for k := int64(0); k < 100; k++ {
		if !s.Insert(k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	for k := int64(0); k < 100; k += 2 {
		if !s.Remove(k) {
			t.Fatalf("remove %d failed", k)
		}
	}
	if s.Len() != 50 {
		t.Fatalf("len = %d, want 50", s.Len())
	}
	commits, _, _ := ptoCounts(reg)
	if commits[0]+commits[1] != 0 {
		t.Fatal("zero-budget tree committed a transaction")
	}
}
