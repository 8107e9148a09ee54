package list

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
		"lockfree": New(),
		"pto":      NewPTO(0),
	}
}

func TestBasicSemantics(t *testing.T) {
	for name, s := range variants() {
		if s.Contains(1) {
			t.Errorf("%s: empty list contains 1", name)
		}
		if !s.Insert(5) || !s.Insert(1) || !s.Insert(9) {
			t.Errorf("%s: fresh inserts failed", name)
		}
		if s.Insert(5) {
			t.Errorf("%s: duplicate insert succeeded", name)
		}
		if !s.Remove(5) || s.Remove(5) {
			t.Errorf("%s: remove semantics wrong", name)
		}
		got := s.Keys()
		if len(got) != 2 || got[0] != 1 || got[1] != 9 {
			t.Errorf("%s: keys = %v, want [1 9]", name, got)
		}
	}
}

func TestSortedTraversal(t *testing.T) {
	for name, s := range variants() {
		for _, k := range rand.New(rand.NewSource(5)).Perm(150) {
			s.Insert(int64(k))
		}
		keys := s.Keys()
		if len(keys) != 150 || !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Errorf("%s: traversal not sorted or wrong size", name)
		}
	}
}

func TestQuickMatchesMap(t *testing.T) {
	f := func(ops []int16) bool {
		for name, s := range variants() {
			model := make(map[int64]bool)
			for _, op := range ops {
				k := int64(op >> 2)
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
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentDistinct(t *testing.T) {
	for name, s := range variants() {
		s := s
		t.Run(name, func(t *testing.T) {
			const g, per = 8, 200
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
		})
	}
}

func TestConcurrentContention(t *testing.T) {
	for name, s := range variants() {
		s := s
		t.Run(name, func(t *testing.T) {
			const keys = 16
			var ins, rem [keys]atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(int64(i * 13)))
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
						default:
							s.Contains(int64(k))
						}
					}
				}(i)
			}
			wg.Wait()
			for k := 0; k < keys; k++ {
				diff := ins[k].Load() - rem[k].Load()
				if diff != 0 && diff != 1 {
					t.Fatalf("key %d: balance %d", k, diff)
				}
				if (diff == 1) != s.Contains(int64(k)) {
					t.Fatalf("key %d: presence disagrees with balance", k)
				}
			}
		})
	}
}

// metered returns a PTO set recording into reg.
func metered(reg *telemetry.Registry) *PTOSet {
	return NewPTO(0).WithPolicy(speculate.Fixed(0).WithMetrics(reg))
}

// totals sums the outcomes of every site in reg: a set's insert and remove
// together.
func totals(reg *telemetry.Registry) (commits, fallbacks, aborts uint64) {
	for _, s := range reg.Snapshot().Sites {
		commits += s.Commits
		fallbacks += s.Fallbacks
		aborts += s.Attempts - s.Commits
	}
	return commits, fallbacks, aborts
}

func TestPTOStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := metered(reg)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < 800; n++ {
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
	commits, fallbacks, aborts := totals(reg)
	if commits == 0 {
		t.Error("no operation ever committed speculatively")
	}
	t.Logf("commits=%d fallbacks=%d aborts=%d", commits, fallbacks, aborts)
}

func TestSentinelsRejected(t *testing.T) {
	for name, s := range variants() {
		name := name
		s := s
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: sentinel insert did not panic", name)
				}
			}()
			s.Insert(tailKey)
		}()
	}
}
