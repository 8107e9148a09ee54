package simds

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/speculate"
)

func TestSimSkipSingleThread(t *testing.T) {
	for _, pto := range []bool{false, true} {
		m := sim.New(sim.DefaultConfig(1))
		s := NewSimSkip(m.Thread(0), pto, 1)
		m.Run(func(t *sim.Thread) {
			for _, k := range []uint64{5, 3, 8, 1} {
				if !s.Insert(t, k) {
					panic("fresh insert failed")
				}
			}
			if s.Insert(t, 5) {
				panic("duplicate insert succeeded")
			}
			if !s.Contains(t, 3) || s.Contains(t, 4) {
				panic("contains wrong")
			}
			if !s.Remove(t, 3) || s.Remove(t, 3) {
				panic("remove semantics wrong")
			}
		})
		keys := s.Keys(m.Thread(0))
		want := []uint64{1, 5, 8}
		if len(keys) != len(want) {
			t.Fatalf("pto=%v: keys = %v", pto, keys)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("pto=%v: keys = %v, want %v", pto, keys, want)
			}
		}
	}
}

func TestSimSkipConcurrentBalance(t *testing.T) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		for _, pto := range []bool{false, true} {
			m := sim.New(sim.DefaultConfig(8))
			s := NewSimSkip(m.Thread(0), pto, 8).WithPolicy(pol)
			const keys = 64
			var ins, rem [8][keys]int
			m.Run(func(t *sim.Thread) {
				for i := 0; i < 150; i++ {
					k := t.Rand() % keys
					if t.Rand()%2 == 0 {
						if s.Insert(t, k+1) {
							ins[t.ID()][k]++
						}
					} else {
						if s.Remove(t, k+1) {
							rem[t.ID()][k]++
						}
					}
				}
			})
			setup := m.Thread(0)
			for k := 0; k < keys; k++ {
				bal := 0
				for tid := 0; tid < 8; tid++ {
					bal += ins[tid][k] - rem[tid][k]
				}
				if bal != 0 && bal != 1 {
					t.Fatalf("pto=%v: key %d balance %d", pto, k, bal)
				}
				if (bal == 1) != s.Contains(setup, uint64(k+1)) {
					t.Fatalf("pto=%v: key %d presence disagrees with balance %d", pto, k, bal)
				}
			}
			if pto && m.Stats().TxCommits == 0 {
				t.Error("pto skiplist never committed a transaction")
			}
		}
	})
}

func TestSimSkipQOrdering(t *testing.T) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		for _, pto := range []bool{false, true} {
			m := sim.New(sim.DefaultConfig(8))
			q := NewSimSkipQ(m.Thread(0), pto, 8).WithPolicy(pol)
			var popped [8][]uint64
			m.Run(func(t *sim.Thread) {
				for i := 0; i < 60; i++ {
					q.Push(t, t.Rand()%1000)
					if i%2 == 1 {
						if v, ok := q.Pop(t); ok {
							popped[t.ID()] = append(popped[t.ID()], v)
						}
					}
				}
			})
			// Conservation: pops + drain == pushes.
			total := 0
			for _, vs := range popped {
				total += len(vs)
			}
			setup := m.Thread(0)
			prev := uint64(0)
			for {
				v, ok := q.Pop(setup)
				if !ok {
					break
				}
				if v < prev {
					t.Fatalf("pto=%v: drain out of order: %d after %d", pto, v, prev)
				}
				prev = v
				total++
			}
			if total != 8*60 {
				t.Fatalf("pto=%v: popped+drained %d, want %d", pto, total, 8*60)
			}
		}
	})
}

func TestSimSkipDeterministic(t *testing.T) {
	run := func() sim.Stats {
		m := sim.New(sim.DefaultConfig(8))
		s := NewSimSkip(m.Thread(0), true, 8)
		m.Run(func(t *sim.Thread) {
			for i := 0; i < 100; i++ {
				k := t.Rand()%128 + 1
				switch t.Rand() % 3 {
				case 0:
					s.Insert(t, k)
				case 1:
					s.Remove(t, k)
				default:
					s.Contains(t, k)
				}
			}
		})
		return m.Stats()
	}
	if run() != run() {
		t.Fatal("nondeterministic skiplist run")
	}
}
