package bst

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

type setIface interface {
	Insert(key int64) bool
	Remove(key int64) bool
	Contains(key int64) bool
	Len() int
	Keys() []int64
}

func variants() map[string]setIface {
	return map[string]setIface{
		"lockfree":  New(),
		"pto1":      NewPTO1(),
		"pto2":      NewPTO2(),
		"pto1+pto2": NewPTO12(),
	}
}

func TestBasicSemantics(t *testing.T) {
	for name, s := range variants() {
		if s.Contains(1) {
			t.Errorf("%s: empty tree contains 1", name)
		}
		if !s.Insert(10) || !s.Insert(5) || !s.Insert(20) {
			t.Errorf("%s: fresh inserts failed", name)
		}
		if s.Insert(10) {
			t.Errorf("%s: duplicate insert succeeded", name)
		}
		for _, k := range []int64{5, 10, 20} {
			if !s.Contains(k) {
				t.Errorf("%s: missing %d", name, k)
			}
		}
		if s.Contains(7) {
			t.Errorf("%s: phantom key", name)
		}
		if !s.Remove(10) || s.Remove(10) {
			t.Errorf("%s: remove semantics wrong", name)
		}
		if s.Contains(10) {
			t.Errorf("%s: contains removed key", name)
		}
		if got := s.Keys(); len(got) != 2 || got[0] != 5 || got[1] != 20 {
			t.Errorf("%s: keys = %v, want [5 20]", name, got)
		}
	}
}

func TestInsertRemoveAll(t *testing.T) {
	for name, s := range variants() {
		perm := rand.New(rand.NewSource(7)).Perm(300)
		for _, k := range perm {
			if !s.Insert(int64(k)) {
				t.Fatalf("%s: insert %d failed", name, k)
			}
		}
		keys := s.Keys()
		if len(keys) != 300 || !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Fatalf("%s: traversal wrong after inserts", name)
		}
		for _, k := range perm {
			if !s.Remove(int64(k)) {
				t.Fatalf("%s: remove %d failed", name, k)
			}
		}
		if s.Len() != 0 {
			t.Fatalf("%s: tree not empty after removing all", name)
		}
	}
}

func TestQuickMatchesMap(t *testing.T) {
	f := func(ops []int16) bool {
		for name, s := range variants() {
			model := make(map[int64]bool)
			for _, op := range ops {
				k := int64(op >> 2)
				if k < 0 {
					k = -k
				}
				switch op & 3 {
				case 0, 1:
					if s.Insert(k) != !model[k] {
						t.Logf("%s: insert(%d) disagreed", name, k)
						return false
					}
					model[k] = true
				case 2:
					if s.Remove(k) != model[k] {
						t.Logf("%s: remove(%d) disagreed", name, k)
						return false
					}
					delete(model, k)
				case 3:
					if s.Contains(k) != model[k] {
						t.Logf("%s: contains(%d) disagreed", name, k)
						return false
					}
				}
			}
			if s.Len() != len(model) {
				t.Logf("%s: len %d != model %d", name, s.Len(), len(model))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	for name, s := range variants() {
		s := s
		t.Run(name, func(t *testing.T) {
			const g, per = 8, 250
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < per; k++ {
						if !s.Insert(int64(i*per + k)) {
							t.Error("insert of distinct key failed")
							return
						}
					}
				}(i)
			}
			wg.Wait()
			if s.Len() != g*per {
				t.Fatalf("len = %d, want %d", s.Len(), g*per)
			}
			// Concurrent removal of disjoint halves.
			var wg2 sync.WaitGroup
			for i := 0; i < g; i++ {
				wg2.Add(1)
				go func(i int) {
					defer wg2.Done()
					for k := 0; k < per; k++ {
						if !s.Remove(int64(i*per + k)) {
							t.Error("remove of present key failed")
							return
						}
					}
				}(i)
			}
			wg2.Wait()
			if s.Len() != 0 {
				t.Fatalf("len = %d after removing all", s.Len())
			}
		})
	}
}

// TestConcurrentContention hammers a small key range; at quiescence, per-key
// presence must equal the insert/remove success balance.
func TestConcurrentContention(t *testing.T) {
	for name, s := range variants() {
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
					rnd := rand.New(rand.NewSource(int64(i * 31)))
					for n := 0; n < 1500; n++ {
						k := rnd.Intn(keys)
						switch rnd.Intn(3) {
						case 0:
							if s.Insert(int64(k)) {
								ins[k].Add(1)
							}
						case 1:
							if s.Remove(int64(k)) {
								rem[k].Add(1)
							}
						case 2:
							s.Contains(int64(k))
						}
					}
				}(i)
			}
			wg.Wait()
			for k := 0; k < keys; k++ {
				diff := ins[k].Load() - rem[k].Load()
				if diff != 0 && diff != 1 {
					t.Fatalf("key %d: inserts-removes = %d", k, diff)
				}
				if (diff == 1) != s.Contains(int64(k)) {
					t.Fatalf("key %d: presence disagrees with balance", k)
				}
			}
		})
	}
}

func TestTreeShapeInvariant(t *testing.T) {
	// After arbitrary churn, the leaf-oriented BST must keep: every internal
	// node's key > all keys in its left subtree and ≤ all keys in its right
	// subtree; sentinel leaves at the far right.
	s := New()
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		k := int64(rnd.Intn(200))
		if rnd.Intn(2) == 0 {
			s.Insert(k)
		} else {
			s.Remove(k)
		}
	}
	var check func(n *node, lo, hi int64)
	check = func(n *node, lo, hi int64) {
		if n.key < lo || n.key > hi {
			t.Fatalf("node key %d outside (%d, %d]", n.key, lo, hi)
		}
		if n.leaf {
			return
		}
		check(n.left.Load(), lo, n.key-1)
		check(n.right.Load(), n.key, hi)
	}
	check(s.root, -1<<62, inf2)
}

// ptoCounts reads a tree's outcomes from its registry: commits per level,
// fallbacks and aborted attempts of insert and remove.
func ptoCounts(reg *telemetry.Registry) (commits [2]uint64, fallbacks, aborts uint64) {
	for _, op := range []string{"bst/insert/", "bst/remove/"} {
		for i, lv := range []string{"pto1", "pto2"} {
			s := reg.Site(op + lv).Snapshot()
			commits[i] += s.Commits
			fallbacks += s.Fallbacks
			aborts += s.Attempts - s.Commits
		}
	}
	return commits, fallbacks, aborts
}

func TestPTOStatsDistribution(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewPTO12().WithPolicy(speculate.Fixed(0).WithMetrics(reg))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < 1000; n++ {
				k := int64(rnd.Intn(512))
				if rnd.Intn(2) == 0 {
					s.Insert(k)
				} else {
					s.Remove(k)
				}
			}
		}(i)
	}
	wg.Wait()
	commits, fallbacks, aborts := ptoCounts(reg)
	t.Logf("pto1=%d pto2=%d fallbacks=%d aborts=%d", commits[0], commits[1], fallbacks, aborts)
	if commits[0] == 0 {
		t.Error("PTO1 never committed")
	}
	if commits[0]+commits[1]+fallbacks == 0 {
		t.Error("no operations recorded")
	}
}

func TestPTO2OnlyCorrectUnderChurn(t *testing.T) {
	s := NewPTO2()
	var wg sync.WaitGroup
	var inserted atomic.Int64
	var removed atomic.Int64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(i * 17)))
			for n := 0; n < 1200; n++ {
				k := int64(rnd.Intn(32))
				if rnd.Intn(2) == 0 {
					if s.Insert(k) {
						inserted.Add(1)
					}
				} else {
					if s.Remove(k) {
						removed.Add(1)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if got := int64(s.Len()); got != inserted.Load()-removed.Load() {
		t.Fatalf("len = %d, want %d", got, inserted.Load()-removed.Load())
	}
}

func TestKeyRangeGuards(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized insert did not panic")
		}
	}()
	if s.Remove(inf1) {
		t.Fatal("removed a sentinel")
	}
	s.Insert(inf1)
}
