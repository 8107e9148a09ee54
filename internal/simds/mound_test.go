package simds

import (
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/speculate"
)

func simMounds(t *sim.Thread) map[string]*SimMound {
	return map[string]*SimMound{
		"lockfree":   NewSimMound(t, false, false, 12),
		"pto":        NewSimMound(t, true, false, 12),
		"pto(fence)": NewSimMound(t, true, true, 12),
	}
}

func TestSimMoundSingleThread(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	for name, q := range simMounds(m.Thread(0)) {
		in := []uint64{5, 1, 9, 1, 3, 7, 0, 2}
		m.Run(func(t *sim.Thread) {
			for _, v := range in {
				q.Insert(t, v)
			}
		})
		want := append([]uint64{}, in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := q.Drain(m.Thread(0))
		if len(got) != len(want) {
			t.Fatalf("%s: drained %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: drained %v, want %v", name, got, want)
			}
		}
	}
}

// TestSimMoundConcurrentConservation runs the baseline, the PTO mound, and
// the PTO mound whose even threads run through a copy with the transactions
// off ("mixed"), so that descriptor DCASes meet prefix transactions on the
// same words.
func TestSimMoundConcurrentConservation(t *testing.T) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		for _, mode := range []string{"lockfree", "pto", "mixed"} {
			m := sim.New(sim.DefaultConfig(8))
			q := NewSimMound(m.Thread(0), mode != "lockfree", false, 12).WithPolicy(pol)
			even := q
			if mode == "mixed" {
				fb := *q
				fb.pto = false
				even = &fb
			}
			const per = 60
			var popped [8][]uint64
			m.Run(func(t *sim.Thread) {
				q := q
				if t.ID()%2 == 0 {
					q = even
				}
				for i := 0; i < per; i++ {
					q.Insert(t, uint64(t.ID()*per+i))
					if i%2 == 1 {
						if v, ok := q.RemoveMin(t); ok {
							popped[t.ID()] = append(popped[t.ID()], v)
						}
					}
				}
			})
			seen := make(map[uint64]int)
			total := 0
			for _, vs := range popped {
				for _, v := range vs {
					seen[v]++
					total++
				}
			}
			for _, v := range q.Drain(m.Thread(0)) {
				seen[v]++
				total++
			}
			if total != 8*per {
				t.Fatalf("%s: popped+drained %d values, want %d", mode, total, 8*per)
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("%s: value %d seen %d times", mode, v, c)
				}
			}
			if mode != "lockfree" && m.Stats().TxCommits == 0 {
				t.Errorf("%s: the mound never committed a transaction", mode)
			}
		}
	})
}

func TestSimMoundQuiescentOrdering(t *testing.T) {
	for _, pto := range []bool{false, true} {
		m := sim.New(sim.DefaultConfig(8))
		q := NewSimMound(m.Thread(0), pto, false, 12)
		m.Run(func(t *sim.Thread) {
			for i := 0; i < 80; i++ {
				q.Insert(t, t.Rand()%100000)
			}
		})
		got := q.Drain(m.Thread(0))
		if len(got) != 8*80 {
			t.Fatalf("pto=%v: drained %d, want %d", pto, len(got), 8*80)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] > got[i] {
				t.Fatalf("pto=%v: out of order at %d: %d > %d", pto, i, got[i-1], got[i])
			}
		}
	}
}

func TestSimMoundFenceVariantCostsMore(t *testing.T) {
	elapsed := func(keepFences bool) uint64 {
		m := sim.New(sim.DefaultConfig(4))
		q := NewSimMound(m.Thread(0), true, keepFences, 12)
		setup := m.Thread(0)
		for i := 0; i < 500; i++ {
			q.Insert(setup, uint64(i*7%10000))
		}
		var clocks [4]uint64
		m.Run(func(t *sim.Thread) {
			for i := 0; i < 100; i++ {
				q.Insert(t, t.Rand()%10000)
				q.RemoveMin(t)
			}
			clocks[t.ID()] = t.Now()
		})
		var total uint64
		for _, c := range clocks {
			total += c
		}
		return total
	}
	withF := elapsed(true)
	withoutF := elapsed(false)
	if withoutF >= withF {
		t.Fatalf("fence elision did not reduce cycles: %d vs %d", withoutF, withF)
	}
}
