package mindicator

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// minder abstracts the two variants so the semantic tests run against both.
type minder interface {
	Arrive(slot int, v int32)
	Depart(slot int)
	Query() (int32, bool)
}

func variants(leaves int) map[string]minder {
	return map[string]minder{
		"lockfree": New(leaves),
		"pto":      NewPTO(leaves, 0),
	}
}

func TestEmptyQuery(t *testing.T) {
	for name, m := range variants(8) {
		if _, ok := m.Query(); ok {
			t.Errorf("%s: query on empty reported a value", name)
		}
	}
}

func TestSingleArriveDepart(t *testing.T) {
	for name, m := range variants(8) {
		m.Arrive(3, 42)
		if v, ok := m.Query(); !ok || v != 42 {
			t.Errorf("%s: query = %d,%v after arrive(42)", name, v, ok)
		}
		m.Depart(3)
		if _, ok := m.Query(); ok {
			t.Errorf("%s: query non-empty after depart", name)
		}
	}
}

func TestMinOverSlots(t *testing.T) {
	for name, m := range variants(8) {
		m.Arrive(0, 10)
		m.Arrive(1, -5)
		m.Arrive(7, 3)
		if v, ok := m.Query(); !ok || v != -5 {
			t.Errorf("%s: query = %d,%v, want -5", name, v, ok)
		}
		m.Depart(1)
		if v, ok := m.Query(); !ok || v != 3 {
			t.Errorf("%s: query = %d,%v after departing min, want 3", name, v, ok)
		}
		m.Depart(0)
		m.Depart(7)
		if _, ok := m.Query(); ok {
			t.Errorf("%s: query non-empty after all departed", name)
		}
	}
}

func TestNegativeAndDuplicateValues(t *testing.T) {
	for name, m := range variants(4) {
		m.Arrive(0, -100)
		m.Arrive(1, -100)
		m.Depart(0)
		if v, ok := m.Query(); !ok || v != -100 {
			t.Errorf("%s: duplicate min lost on single depart: %d,%v", name, v, ok)
		}
		m.Depart(1)
	}
}

// TestQuickSequentialEquivalence drives both variants plus a trivial
// model with the same random operation sequence and checks the queries agree.
func TestQuickSequentialEquivalence(t *testing.T) {
	const leaves = 16
	f := func(ops []uint32) bool {
		vs := variants(leaves)
		model := make(map[int]int32)
		for _, op := range ops {
			slot := int(op>>8) % leaves
			v := int32(int8(op)) // small signed values, lots of collisions
			if op&1 == 0 {
				for name, m := range vs {
					_ = name
					m.Arrive(slot, v)
				}
				model[slot] = v
			} else {
				for _, m := range vs {
					m.Depart(slot)
				}
				delete(model, slot)
			}
			wantOK := len(model) > 0
			var want int32
			first := true
			for _, mv := range model {
				if first || mv < want {
					want = mv
					first = false
				}
			}
			for name, m := range vs {
				v, ok := m.Query()
				if ok != wantOK || (ok && v != want) {
					t.Logf("%s: query = %d,%v, want %d,%v", name, v, ok, want, wantOK)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestConcurrentQuiescentConsistency runs concurrent arrive/depart churn and
// checks the root is exactly right at every quiescent point between rounds.
func TestConcurrentQuiescentConsistency(t *testing.T) {
	const leaves = 16
	const rounds = 30
	for name, m := range variants(leaves) {
		m := m
		t.Run(name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				values := make([]int32, leaves)
				active := make([]bool, leaves)
				var wg sync.WaitGroup
				for s := 0; s < leaves; s++ {
					wg.Add(1)
					go func(s, r int) {
						defer wg.Done()
						rnd := rand.New(rand.NewSource(int64(s*1000 + r)))
						for i := 0; i < 20; i++ {
							v := int32(rnd.Intn(2000) - 1000)
							m.Arrive(s, v)
							if rnd.Intn(2) == 0 {
								m.Depart(s)
							} else {
								values[s] = v
								active[s] = true
								return
							}
						}
						active[s] = false
					}(s, r)
				}
				wg.Wait()
				wantOK := false
				var want int32
				for s := 0; s < leaves; s++ {
					if active[s] && (!wantOK || values[s] < want) {
						want = values[s]
						wantOK = true
					}
				}
				v, ok := m.Query()
				if ok != wantOK || (ok && v != want) {
					t.Fatalf("round %d: query = %d,%v, want %d,%v", r, v, ok, want, wantOK)
				}
				for s := 0; s < leaves; s++ {
					if active[s] {
						m.Depart(s)
					}
				}
			}
		})
	}
}

// TestSelfVisibility checks the documented visibility property: once
// concurrent repairs settle (a quiescent point), every arrived thread's
// value bounds the root from above. Arrivals race freely; the check happens
// at a barrier, since transient staleness windows during concurrent repair
// are permitted by this variant's semantics (see the package docs).
func TestSelfVisibility(t *testing.T) {
	const leaves = 8
	const rounds = 40
	for name, m := range variants(leaves) {
		m := m
		t.Run(name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				values := make([]int32, leaves)
				var wg sync.WaitGroup
				for s := 0; s < leaves; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						rnd := rand.New(rand.NewSource(int64(s*100 + round)))
						// Churn, then leave a final value arrived.
						for i := 0; i < 5; i++ {
							m.Arrive(s, int32(rnd.Intn(1000)))
							m.Depart(s)
							runtime.Gosched()
						}
						values[s] = int32(rnd.Intn(1000))
						m.Arrive(s, values[s])
					}(s)
				}
				wg.Wait()
				for s := 0; s < leaves; s++ {
					got, has := m.Query()
					if !has || got > values[s] {
						t.Fatalf("%s slot %d: settled value %d does not bound root (%d,%v)",
							name, s, values[s], got, has)
					}
				}
				for s := 0; s < leaves; s++ {
					m.Depart(s)
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

func TestPTOFallbackAccounting(t *testing.T) {
	const leaves = 8
	pol, reg := metered()
	p := NewPTO(leaves, 0).WithPolicy(pol)
	const perSlot = 300
	var wg sync.WaitGroup
	for s := 0; s < leaves; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSlot; i++ {
				p.Arrive(s, int32(i))
				p.Depart(s)
			}
		}(s)
	}
	wg.Wait()
	s := reg.Site("mindicator/update").Snapshot()
	if want := uint64(leaves * perSlot * 2); s.Commits+s.Fallbacks != want {
		t.Fatalf("commits+fallbacks = %d, want %d", s.Commits+s.Fallbacks, want)
	}
	if s.Commits == 0 {
		t.Error("no operation ever committed speculatively")
	}
}

func TestInvalidLeafCount(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}
