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
