package simds

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/speculate"
)

func mindKinds() map[string]MindKind {
	return map[string]MindKind{
		"lockfree": MindLockfree,
		"pto":      MindPTO,
		"tle":      MindTLE,
	}
}

func TestSimMindicatorSingleThread(t *testing.T) {
	for name, kind := range mindKinds() {
		m := sim.New(sim.DefaultConfig(1))
		setup := m.Thread(0)
		mi := NewMindicator(setup, kind, 8)
		var q1, q2, q3 uint64
		m.Run(func(t *sim.Thread) {
			mi.Arrive(t, 0, 10)
			mi.Arrive(t, 3, -5)
			q1 = mi.Query(t)
			mi.Depart(t, 3)
			q2 = mi.Query(t)
			mi.Depart(t, 0)
			q3 = mi.Query(t)
		})
		if q1 != mindEnc(-5) {
			t.Errorf("%s: q1 = %x, want enc(-5)", name, q1)
		}
		if q2 != mindEnc(10) {
			t.Errorf("%s: q2 = %x, want enc(10)", name, q2)
		}
		if q3 != mindInf {
			t.Errorf("%s: q3 = %x, want inf", name, q3)
		}
	}
}

func TestSimMindicatorConcurrentQuiescent(t *testing.T) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		for name, kind := range mindKinds() {
			m := sim.New(sim.DefaultConfig(8))
			setup := m.Thread(0)
			mi := NewMindicator(setup, kind, 64).WithPolicy(pol)
			m.Run(func(t *sim.Thread) {
				for i := 0; i < 50; i++ {
					mi.Arrive(t, t.ID(), int32(t.Rand()%1000))
					mi.Depart(t, t.ID())
				}
			})
			if got := mi.Query(setup); got != mindInf {
				t.Errorf("%s: root = %x after all departs, want inf", name, got)
			}
			if kind == MindPTO && m.Stats().TxCommits == 0 {
				t.Errorf("%s: no transaction ever committed", name)
			}
		}
	})
}

func TestSimMindicatorConcurrentMinVisible(t *testing.T) {
	for name, kind := range mindKinds() {
		m := sim.New(sim.DefaultConfig(4))
		setup := m.Thread(0)
		mi := NewMindicator(setup, kind, 8)
		m.Run(func(t *sim.Thread) {
			for i := 0; i < 30; i++ {
				mi.Arrive(t, t.ID(), int32(t.ID()*100+i))
				mi.Depart(t, t.ID())
			}
			// Leave a final value in place.
			mi.Arrive(t, t.ID(), int32(t.ID()+1))
		})
		if got := mi.Query(setup); got != mindEnc(1) {
			t.Errorf("%s: root = %x at quiescence, want enc(1)", name, got)
		}
	}
}

func TestSimMindicatorDeterministic(t *testing.T) {
	run := func() (uint64, sim.Stats) {
		m := sim.New(sim.DefaultConfig(8))
		mi := NewMindicator(m.Thread(0), MindPTO, 64)
		var clocks [8]uint64
		m.Run(func(t *sim.Thread) {
			for i := 0; i < 40; i++ {
				mi.Arrive(t, t.ID(), int32(t.Rand()%100))
				mi.Depart(t, t.ID())
			}
			clocks[t.ID()] = t.Now()
		})
		var total uint64
		for _, c := range clocks {
			total += c
		}
		return total, m.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: %d/%+v vs %d/%+v", t1, s1, t2, s2)
	}
}
