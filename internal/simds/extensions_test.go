package simds

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/speculate"
)

func TestSimListSingleThread(t *testing.T) {
	for _, pto := range []bool{false, true} {
		m := sim.New(sim.DefaultConfig(1))
		l := NewSimList(m.Thread(0), pto, 1)
		m.Run(func(t *sim.Thread) {
			for _, k := range []uint64{5, 1, 9} {
				if !l.Insert(t, k) {
					panic("fresh insert failed")
				}
			}
			if l.Insert(t, 5) {
				panic("duplicate insert succeeded")
			}
			if !l.Contains(t, 9) || l.Contains(t, 4) {
				panic("contains wrong")
			}
			if !l.Remove(t, 5) || l.Remove(t, 5) {
				panic("remove semantics wrong")
			}
		})
		keys := l.Keys(m.Thread(0))
		want := []uint64{1, 9}
		if len(keys) != len(want) || keys[0] != 1 || keys[1] != 9 {
			t.Fatalf("pto=%v: keys = %v, want %v", pto, keys, want)
		}
	}
}

func TestSimListConcurrentBalance(t *testing.T) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		for _, pto := range []bool{false, true} {
			m := sim.New(sim.DefaultConfig(8))
			l := NewSimList(m.Thread(0), pto, 8).WithPolicy(pol)
			const keys = 32
			var ins, rem [8][keys]int
			m.Run(func(t *sim.Thread) {
				for i := 0; i < 120; i++ {
					x := t.Rand()
					k := x % keys
					if x>>8&1 == 0 {
						if l.Insert(t, k+1) {
							ins[t.ID()][k]++
						}
					} else {
						if l.Remove(t, k+1) {
							rem[t.ID()][k]++
						}
					}
				}
			})
			present := map[uint64]bool{}
			for _, k := range l.Keys(m.Thread(0)) {
				present[k] = true
			}
			for k := 0; k < keys; k++ {
				bal := 0
				for tid := 0; tid < 8; tid++ {
					bal += ins[tid][k] - rem[tid][k]
				}
				if bal != 0 && bal != 1 {
					t.Fatalf("pto=%v: key %d balance %d", pto, k, bal)
				}
				if (bal == 1) != present[uint64(k+1)] {
					t.Fatalf("pto=%v: key %d presence disagrees with balance", pto, k)
				}
			}
			if pto && m.Stats().TxCommits == 0 {
				t.Error("pto list never committed a transaction")
			}
		}
	})
}

func TestLinearizableSimList(t *testing.T) {
	for _, pto := range []bool{false, true} {
		for seed := uint64(1); seed <= 8; seed++ {
			pto := pto
			recordHistory(t, "list", func(setup *sim.Thread, threads int) simSet {
				return listAdapter{NewSimList(setup, pto, threads)}
			}, seed)
		}
	}
}

type listAdapter struct{ l *SimList }

func (a listAdapter) Insert(t *sim.Thread, k uint64) bool   { return a.l.Insert(t, k) }
func (a listAdapter) Remove(t *sim.Thread, k uint64) bool   { return a.l.Remove(t, k) }
func (a listAdapter) Contains(t *sim.Thread, k uint64) bool { return a.l.Contains(t, k) }

func TestSimListPTOElidesHazards(t *testing.T) {
	// With a single thread the PTO list commits every operation and must
	// execute far fewer fences (no hazard publications) than the baseline.
	run := func(pto bool) uint64 {
		m := sim.New(sim.DefaultConfig(1))
		l := NewSimList(m.Thread(0), pto, 1)
		m.Run(func(t *sim.Thread) {
			for i := uint64(1); i <= 200; i++ {
				l.Insert(t, i%64+1)
				l.Remove(t, i%64+1)
			}
		})
		return m.Stats().Fences
	}
	base := run(false)
	pto := run(true)
	if pto*4 >= base {
		t.Fatalf("PTO did not elide hazard fences: %d vs %d", pto, base)
	}
}

func TestSimMSQueueFIFO(t *testing.T) {
	for _, pto := range []bool{false, true} {
		m := sim.New(sim.DefaultConfig(1))
		q := NewSimMSQueue(m.Thread(0), pto)
		m.Run(func(t *sim.Thread) {
			for i := uint64(0); i < 50; i++ {
				q.Enqueue(t, i)
			}
			for i := uint64(0); i < 50; i++ {
				v, ok := q.Dequeue(t)
				if !ok || v != i {
					panic("FIFO order violated")
				}
			}
			if _, ok := q.Dequeue(t); ok {
				panic("residue after drain")
			}
		})
	}
}

func TestSimMSQueueConcurrentConservation(t *testing.T) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		for _, pto := range []bool{false, true} {
			m := sim.New(sim.DefaultConfig(8))
			q := NewSimMSQueue(m.Thread(0), pto).WithPolicy(pol)
			var deq [8][]uint64
			const per = 80
			m.Run(func(t *sim.Thread) {
				for i := 0; i < per; i++ {
					q.Enqueue(t, uint64(t.ID()*per+i))
					if i%2 == 1 {
						if v, ok := q.Dequeue(t); ok {
							deq[t.ID()] = append(deq[t.ID()], v)
						}
					}
				}
			})
			seen := map[uint64]int{}
			total := 0
			for _, vs := range deq {
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
				t.Fatalf("pto=%v: %d values, want %d", pto, total, 8*per)
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("pto=%v: value %d seen %d times", pto, v, c)
				}
			}
		}
	})
}

// TestSimMSQueuePerProducerOrder drains with one thread and checks each
// producer's values appear in production order (FIFO linearizability).
func TestSimMSQueuePerProducerOrder(t *testing.T) {
	for _, pto := range []bool{false, true} {
		m := sim.New(sim.DefaultConfig(4))
		q := NewSimMSQueue(m.Thread(0), pto)
		const per = 100
		m.Run(func(t *sim.Thread) {
			for i := 0; i < per; i++ {
				q.Enqueue(t, uint64(t.ID()*per+i))
			}
		})
		last := map[uint64]int{}
		for _, v := range q.Drain(m.Thread(0)) {
			p, i := v/per, int(v%per)
			if prev, ok := last[p]; ok && i <= prev {
				t.Fatalf("pto=%v: producer %d out of order: %d after %d", pto, p, i, prev)
			}
			last[p] = i
		}
	}
}
