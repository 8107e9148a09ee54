package hashtable

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

type tableIface interface {
	Insert(key int64) bool
	Remove(key int64) bool
	Contains(key int64) bool
	Len() int
	Size() int
	Grow()
	Shrink()
	Keys() []int64
	Resizes() uint64
}

func variants() map[string]tableIface {
	return map[string]tableIface{
		"lockfree": NewTable(4),
		"pto":      NewPTOTable(4, 0),
	}
}

func TestBasicSemantics(t *testing.T) {
	for name, h := range variants() {
		if h.Contains(1) {
			t.Errorf("%s: empty table contains 1", name)
		}
		if !h.Insert(1) || !h.Insert(2) || !h.Insert(300) {
			t.Errorf("%s: fresh inserts failed", name)
		}
		if h.Insert(2) {
			t.Errorf("%s: duplicate insert succeeded", name)
		}
		if !h.Contains(1) || !h.Contains(300) || h.Contains(4) {
			t.Errorf("%s: contains wrong", name)
		}
		if !h.Remove(2) || h.Remove(2) {
			t.Errorf("%s: remove semantics wrong", name)
		}
		if h.Len() != 2 {
			t.Errorf("%s: len = %d, want 2", name, h.Len())
		}
	}
}

func TestGrowPreservesContents(t *testing.T) {
	for name, h := range variants() {
		for k := int64(0); k < 100; k++ {
			h.Insert(k)
		}
		size0 := h.Size()
		h.Grow()
		h.Grow()
		if h.Size() <= size0 {
			t.Errorf("%s: size did not grow (%d -> %d)", name, size0, h.Size())
		}
		for k := int64(0); k < 100; k++ {
			if !h.Contains(k) {
				t.Errorf("%s: key %d lost in grow", name, k)
			}
		}
		if h.Contains(1000) {
			t.Errorf("%s: phantom key after grow", name)
		}
	}
}

func TestShrinkPreservesContents(t *testing.T) {
	for name, h := range variants() {
		for k := int64(0); k < 60; k++ {
			h.Insert(k)
		}
		h.Grow()
		h.Grow()
		h.Shrink()
		h.Shrink()
		for k := int64(0); k < 60; k++ {
			if !h.Contains(k) {
				t.Errorf("%s: key %d lost in shrink", name, k)
			}
		}
	}
}

func TestAutoGrowTriggers(t *testing.T) {
	for name, h := range variants() {
		for k := int64(0); k < 1000; k++ {
			h.Insert(k)
		}
		if h.Resizes() == 0 {
			t.Errorf("%s: no automatic resize after 1000 inserts into 4 buckets", name)
		}
		for k := int64(0); k < 1000; k++ {
			if !h.Contains(k) {
				t.Fatalf("%s: key %d lost across auto-grow", name, k)
			}
		}
	}
}

func TestKeysSnapshot(t *testing.T) {
	for name, h := range variants() {
		want := []int64{3, 1, 4, 15, 9, 26}
		for _, k := range want {
			h.Insert(k)
		}
		got := h.Keys()
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("%s: keys = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: keys = %v, want %v", name, got, want)
			}
		}
	}
}

func TestQuickMatchesMap(t *testing.T) {
	f := func(ops []int16) bool {
		for name, h := range variants() {
			model := make(map[int64]bool)
			for _, op := range ops {
				k := int64(uint16(op) >> 2)
				switch op & 3 {
				case 0, 1:
					if h.Insert(k) != !model[k] {
						t.Logf("%s: insert(%d) disagreed", name, k)
						return false
					}
					model[k] = true
				case 2:
					if h.Remove(k) != model[k] {
						t.Logf("%s: remove(%d) disagreed", name, k)
						return false
					}
					delete(model, k)
				case 3:
					if h.Contains(k) != model[k] {
						t.Logf("%s: contains(%d) disagreed", name, k)
						return false
					}
				}
			}
			if h.Len() != len(model) {
				t.Logf("%s: len %d != model %d", name, h.Len(), len(model))
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
	for name, h := range variants() {
		h := h
		t.Run(name, func(t *testing.T) {
			const g, per = 8, 400
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < per; k++ {
						if !h.Insert(int64(i*per + k)) {
							t.Error("insert of distinct key failed")
							return
						}
					}
				}(i)
			}
			wg.Wait()
			if h.Len() != g*per {
				t.Fatalf("len = %d, want %d", h.Len(), g*per)
			}
			for k := 0; k < g*per; k++ {
				if !h.Contains(int64(k)) {
					t.Fatalf("key %d missing", k)
				}
			}
		})
	}
}

// TestConcurrentChurnWithResizes mixes updates, lookups, and forced resizes;
// per-key balance must match presence at quiescence.
func TestConcurrentChurnWithResizes(t *testing.T) {
	for name, h := range variants() {
		h := h
		t.Run(name, func(t *testing.T) {
			const keys = 128
			const g = 8
			var ins, rem [keys]atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(int64(i * 7)))
					for n := 0; n < 1500; n++ {
						k := rnd.Intn(keys)
						switch rnd.Intn(4) {
						case 0:
							if h.Insert(int64(k)) {
								ins[k].Add(1)
							}
						case 1:
							if h.Remove(int64(k)) {
								rem[k].Add(1)
							}
						case 2:
							h.Contains(int64(k))
						case 3:
							if n%500 == 99 {
								if rnd.Intn(2) == 0 {
									h.Grow()
								} else {
									h.Shrink()
								}
							}
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
				if (diff == 1) != h.Contains(int64(k)) {
					t.Fatalf("key %d: presence disagrees with balance %d", k, diff)
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

// totals sums the outcomes of every site in reg: a table's insert, remove
// and contains together.
func totals(reg *telemetry.Registry) (commits, fallbacks, aborts uint64) {
	for _, s := range reg.Snapshot().Sites {
		commits += s.Commits
		fallbacks += s.Fallbacks
		aborts += s.Attempts - s.Commits
	}
	return commits, fallbacks, aborts
}

func TestPTOStatsAccounting(t *testing.T) {
	pol, reg := metered()
	h := NewPTOTable(16, 0).WithPolicy(pol)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < 800; n++ {
				k := int64(rnd.Intn(256))
				switch rnd.Intn(3) {
				case 0:
					h.Insert(k)
				case 1:
					h.Remove(k)
				default:
					h.Contains(k)
				}
			}
		}(i)
	}
	wg.Wait()
	commits, fallbacks, aborts := totals(reg)
	t.Logf("commits=%d fallbacks=%d aborts=%d", commits, fallbacks, aborts)
	if commits == 0 {
		t.Error("no operation ever committed speculatively")
	}
}

// TestBaselineRecyclingIsSafe churns one bucket hard so retired arrays are
// recycled while concurrent lookups scan; epoch protection must prevent any
// lookup from observing a key that was never inserted.
func TestBaselineRecyclingIsSafe(t *testing.T) {
	h := NewTable(2)
	const poison = int64(1 << 40)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if h.Contains(poison) {
					t.Error("lookup observed a never-inserted key (use-after-free)")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4000; i++ {
			k := int64(i % 7)
			h.Insert(k)
			h.Remove(k)
		}
		close(stop)
	}()
	wg.Wait()
}
