package hashtable

import (
	"math/rand"
	"sync"
	"testing"
)

// Crushing the transactional read capacity forces the PTO table onto its
// fallback path: the original copy-on-write protocol with epoch brackets,
// bucket initialization, freezing, and resizing.

func modelCheck(t *testing.T, h tableIface, seed int64) {
	t.Helper()
	model := make(map[int64]bool)
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < 4000; i++ {
		k := int64(rnd.Intn(512))
		switch rnd.Intn(3) {
		case 0:
			if h.Insert(k) != !model[k] {
				t.Fatalf("insert(%d) disagreed at op %d", k, i)
			}
			model[k] = true
		case 1:
			if h.Remove(k) != model[k] {
				t.Fatalf("remove(%d) disagreed at op %d", k, i)
			}
			delete(model, k)
		default:
			if h.Contains(k) != model[k] {
				t.Fatalf("contains(%d) disagreed at op %d", k, i)
			}
		}
	}
	if h.Len() != len(model) {
		t.Fatalf("len = %d, model %d", h.Len(), len(model))
	}
}

func TestPTOTableFallbackForced(t *testing.T) {
	pol, reg := metered()
	h := NewPTOTable(2, 0).WithPolicy(pol)
	h.Domain().SetCapacity(1, 1)
	modelCheck(t, h, 11)
	commits, fallbacks, _ := totals(reg)
	if commits != 0 || fallbacks == 0 {
		t.Fatalf("expected pure fallback: commits=%d fallbacks=%d", commits, fallbacks)
	}
	if h.Resizes() == 0 {
		t.Error("fallback path never resized")
	}
}

func TestPTOTableFallbackConcurrentWithResizes(t *testing.T) {
	h := NewPTOTable(2, 0)
	h.Domain().SetCapacity(1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g * 5)))
			for i := 0; i < 1200; i++ {
				k := int64(rnd.Intn(128))
				switch rnd.Intn(4) {
				case 0, 1:
					h.Insert(k)
				case 2:
					h.Remove(k)
				default:
					h.Contains(k)
				}
				if i%400 == 199 {
					h.Grow()
				}
			}
		}(g)
	}
	wg.Wait()
	// Quiescent membership must be self-consistent with a snapshot.
	seen := map[int64]bool{}
	for _, k := range h.Keys() {
		if seen[k] {
			t.Fatalf("key %d present twice after contended fallback run", k)
		}
		seen[k] = true
	}
}
