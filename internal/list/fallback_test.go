package list

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// Crushing the transactional read capacity forces the PTO list onto its
// fallback paths: the original single-CAS link and two-phase mark-then-snip.

func TestFallbackPathsForced(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := metered(reg)
	s.Domain().SetCapacity(1, 1)
	model := make(map[int64]bool)
	rnd := rand.New(rand.NewSource(9))
	for i := 0; i < 4000; i++ {
		k := int64(rnd.Intn(48))
		switch rnd.Intn(3) {
		case 0:
			if s.Insert(k) != !model[k] {
				t.Fatalf("insert(%d) disagreed at op %d", k, i)
			}
			model[k] = true
		case 1:
			if s.Remove(k) != model[k] {
				t.Fatalf("remove(%d) disagreed at op %d", k, i)
			}
			delete(model, k)
		default:
			if s.Contains(k) != model[k] {
				t.Fatalf("contains(%d) disagreed at op %d", k, i)
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("len = %d, model %d", s.Len(), len(model))
	}
	// Insert's transaction validates a single predecessor box (one read),
	// so inserts still commit under the crushed capacity; removals need two
	// reads and must all fall back.
	_, fallbacks, _ := totals(reg)
	if fallbacks < 500 {
		t.Fatalf("capacity crush forced too few fallbacks: %d", fallbacks)
	}
}

func TestFallbackConcurrent(t *testing.T) {
	s := NewPTO(0)
	s.Domain().SetCapacity(1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g * 11)))
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
			t.Fatal("list not sorted after contended fallback run")
		}
	}
}
