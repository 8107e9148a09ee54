package simds

import (
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/speculate"
)

func hashKinds() map[string]HashKind {
	return map[string]HashKind{
		"lockfree":    HashLF,
		"pto":         HashPTO,
		"pto+inplace": HashInplace,
	}
}

func TestSimHashSingleThread(t *testing.T) {
	for name, kind := range hashKinds() {
		m := sim.New(sim.DefaultConfig(1))
		h := NewSimHash(m.Thread(0), kind, 4, 1)
		m.Run(func(t *sim.Thread) {
			for _, k := range []uint64{1, 2, 300, 5000} {
				if !h.Insert(t, k) {
					panic("fresh insert failed")
				}
			}
			if h.Insert(t, 2) {
				panic("duplicate insert succeeded")
			}
			if !h.Contains(t, 300) || h.Contains(t, 4) {
				panic("contains wrong")
			}
			if !h.Remove(t, 2) || h.Remove(t, 2) {
				panic("remove semantics wrong")
			}
		})
		keys := h.Keys(m.Thread(0))
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		want := []uint64{1, 300, 5000}
		if len(keys) != len(want) {
			t.Fatalf("%s: keys = %v, want %v", name, keys, want)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("%s: keys = %v, want %v", name, keys, want)
			}
		}
	}
}

func TestSimHashGrowth(t *testing.T) {
	for name, kind := range hashKinds() {
		m := sim.New(sim.DefaultConfig(1))
		h := NewSimHash(m.Thread(0), kind, 2, 1)
		setup := m.Thread(0)
		for k := uint64(1); k <= 300; k++ {
			h.Insert(setup, k)
		}
		hn := sim.Addr(setup.Load(h.headPtr))
		if size := setup.Load(hn + hnSize); size <= 2 {
			t.Errorf("%s: table never grew (size %d)", name, size)
		}
		for k := uint64(1); k <= 300; k++ {
			if !h.Contains(setup, k) {
				t.Fatalf("%s: key %d lost across growth", name, k)
			}
		}
		if len(h.Keys(setup)) != 300 {
			t.Fatalf("%s: %d keys, want 300", name, len(h.Keys(setup)))
		}
	}
}

// TestSimHashConcurrentBalance runs each variant, and the PTO table whose
// even threads run through a copy with the transactions off ("mixed"), so
// that the original protocol's updates meet prefix transactions on the same
// buckets.
func TestSimHashConcurrentBalance(t *testing.T) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		kinds := hashKinds()
		kinds["mixed"] = HashPTO
		for name, kind := range kinds {
			m := sim.New(sim.DefaultConfig(8))
			h := NewSimHash(m.Thread(0), kind, 8, 8).WithPolicy(pol)
			even := h
			if name == "mixed" {
				lf := *h
				lf.kind = HashLF
				even = &lf
			}
			const keys = 128
			var ins, rem [8][keys]int
			m.Run(func(t *sim.Thread) {
				h := h
				if t.ID()%2 == 0 {
					h = even
				}
				for i := 0; i < 150; i++ {
					k := t.Rand() % keys
					switch t.Rand() % 3 {
					case 0:
						if h.Insert(t, k+1) {
							ins[t.ID()][k]++
						}
					case 1:
						if h.Remove(t, k+1) {
							rem[t.ID()][k]++
						}
					default:
						h.Contains(t, k+1)
					}
				}
			})
			setup := m.Thread(0)
			present := make(map[uint64]bool)
			for _, k := range h.Keys(setup) {
				if present[k] {
					t.Fatalf("%s: key %d present twice", name, k)
				}
				present[k] = true
			}
			for k := 0; k < keys; k++ {
				bal := 0
				for tid := 0; tid < 8; tid++ {
					bal += ins[tid][k] - rem[tid][k]
				}
				if bal != 0 && bal != 1 {
					t.Fatalf("%s: key %d balance %d", name, k, bal)
				}
				if (bal == 1) != present[uint64(k+1)] {
					t.Fatalf("%s: key %d presence disagrees with balance %d", name, k, bal)
				}
			}
			if kind != HashLF && m.Stats().TxCommits == 0 {
				t.Errorf("%s: no transaction ever committed", name)
			}
		}
	})
}

func TestSimHashInplaceAvoidsAllocation(t *testing.T) {
	run := func(kind HashKind) uint64 {
		m := sim.New(sim.DefaultConfig(4))
		h := NewSimHash(m.Thread(0), kind, 64, 4)
		setup := m.Thread(0)
		for k := uint64(1); k <= 200; k++ {
			h.Insert(setup, k)
		}
		before := m.Stats().Allocs
		m.Run(func(t *sim.Thread) {
			for i := 0; i < 200; i++ {
				k := t.Rand()%400 + 1
				if t.Rand()%2 == 0 {
					h.Insert(t, k)
				} else {
					h.Remove(t, k)
				}
			}
		})
		return m.Stats().Allocs - before
	}
	cow := run(HashPTO)
	inplace := run(HashInplace)
	if inplace*2 >= cow {
		t.Fatalf("in-place did not cut allocations: %d vs %d", inplace, cow)
	}
}

func TestSimHashDeterministic(t *testing.T) {
	run := func(kind HashKind) sim.Stats {
		m := sim.New(sim.DefaultConfig(8))
		h := NewSimHash(m.Thread(0), kind, 16, 8)
		m.Run(func(t *sim.Thread) {
			for i := 0; i < 100; i++ {
				k := t.Rand()%256 + 1
				switch t.Rand() % 3 {
				case 0:
					h.Insert(t, k)
				case 1:
					h.Remove(t, k)
				default:
					h.Contains(t, k)
				}
			}
		})
		return m.Stats()
	}
	for _, kind := range []HashKind{HashLF, HashPTO, HashInplace} {
		if run(kind) != run(kind) {
			t.Fatalf("nondeterministic run for kind %d", kind)
		}
	}
}
