package skiplist

import (
	"math/rand"
	"sync"
	"testing"
)

// Crushing the transactional read capacity forces every prefix transaction
// to abort with AbortCapacity, so all operations run the original per-level
// CAS protocols (insertFallback, removeFallback).

func TestSetFallbackPathsForced(t *testing.T) {
	pol, reg := metered()
	s := NewPTOSet(0).WithPolicy(pol)
	s.Domain().SetCapacity(1, 1)
	model := make(map[int64]bool)
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		k := int64(rnd.Intn(64))
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
	// Single-level inserts need only one validation read, so a few still
	// commit under the crushed capacity; the bulk must fall back.
	ins := reg.Site("skiplist/insert").Snapshot()
	if ins.Fallbacks == 0 || ins.Fallbacks < ins.Commits {
		t.Fatalf("fallbacks did not dominate: commits=%d fallbacks=%d", ins.Commits, ins.Fallbacks)
	}
}

func TestSetFallbackConcurrent(t *testing.T) {
	s := NewPTOSet(0)
	s.Domain().SetCapacity(1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g * 3)))
			for i := 0; i < 1500; i++ {
				k := int64(rnd.Intn(24))
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
			t.Fatal("level-0 list not sorted after contended fallback run")
		}
	}
}
