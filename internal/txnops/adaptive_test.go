package txnops_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bst"
	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/list"
	"repro/internal/mindicator"
	"repro/internal/mound"
	"repro/internal/msqueue"
	"repro/internal/skiplist"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// The crushed-capacity churn: crushedThreads goroutines of crushedOps
// operations each, on a domain with one read and one write slot.
const crushedThreads, crushedOps = 4, 2000

// TestCrushedCapacityTripsAdaptiveDisable runs every runtime PTO structure
// under the adaptive policy with its domain crushed to SetCapacity(1, 1).
// Nearly every attempt then capacity-aborts, so at least one of the
// structure's own sites must close a window below the commit-ratio
// threshold and disable speculation, while the fallback keeps the
// structure's conservation check. Each structure records into a registry of
// its own, so a disable on one cannot stand in for another.
func TestCrushedCapacityTripsAdaptiveDisable(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T, speculate.Policy)
	}{
		{"bst", func(t *testing.T, p speculate.Policy) { churnSet(t, bst.NewPTO12().WithPolicy(p)) }},
		{"skiplist", func(t *testing.T, p speculate.Policy) { churnSet(t, skiplist.NewPTOSet(0).WithPolicy(p)) }},
		{"hashtable", func(t *testing.T, p speculate.Policy) { churnSet(t, hashtable.NewPTOTable(4, 0).WithPolicy(p)) }},
		{"list", func(t *testing.T, p speculate.Policy) { churnSet(t, list.NewPTO(0).WithPolicy(p)) }},
		{"msqueue", func(t *testing.T, p speculate.Policy) {
			q := msqueue.NewPTO(0).WithPolicy(p)
			churnBag(t, q.Domain(), q.Enqueue, q.Dequeue, false)
		}},
		{"mound", func(t *testing.T, p speculate.Policy) {
			q := mound.NewPTO(0, 0).WithPolicy(p)
			churnBag(t, q.Domain(), q.Insert, q.RemoveMin, true)
		}},
		{"mindicator", func(t *testing.T, p speculate.Policy) {
			churnMind(t, mindicator.NewPTO(2*crushedThreads, 0).WithPolicy(p))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			c.run(t, speculate.Adaptive().WithMetrics(reg))
			var disabled []string
			for _, s := range reg.Snapshot().Sites {
				if s.Disables > 0 {
					disabled = append(disabled, s.Name)
				}
			}
			if len(disabled) == 0 {
				t.Fatalf("no site disabled speculation under crushed capacity: %+v", reg.Snapshot().Sites)
			}
			t.Logf("disabling sites: %v", disabled)
		})
	}
}

// hammer runs body on crushedThreads goroutines and waits for them.
func hammer(body func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < crushedThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body(g)
		}(g)
	}
	wg.Wait()
}

// churnSet crushes s's capacity, churns a small key range and checks that
// each key's insert/remove balance is 0 or 1 and matches its membership.
func churnSet(t *testing.T, s interface {
	Insert(int64) bool
	Remove(int64) bool
	Contains(int64) bool
	Domain() *htm.Domain
}) {
	const keys = 64
	s.Domain().SetCapacity(1, 1)
	var ins, rem [keys]atomic.Int64
	hammer(func(g int) {
		rnd := uint64(g)*0x9E3779B9 + 1
		for i := 0; i < crushedOps; i++ {
			rnd = splitmix(rnd)
			k := int64(rnd % keys)
			switch rnd >> 32 % 3 {
			case 0:
				if s.Insert(k) {
					ins[k].Add(1)
				}
			case 1:
				if s.Remove(k) {
					rem[k].Add(1)
				}
			default:
				s.Contains(k)
			}
		}
	})
	for k := range ins {
		d, in := ins[k].Load()-rem[k].Load(), s.Contains(int64(k))
		if (d != 0 && d != 1) || (d == 1) != in {
			t.Fatalf("key %d: inserts-removes = %d, contains = %v", k, d, in)
		}
	}
}

// churnBag crushes d, puts distinct values in scrambled order with a take
// after every second put, drains, and checks that every value came out
// exactly once — and, for a priority queue (sorted), that the quiescent
// drain ascends.
func churnBag(t *testing.T, d *htm.Domain, put func(int64), take func() (int64, bool), sorted bool) {
	d.SetCapacity(1, 1)
	seen := make([]atomic.Int32, crushedThreads*crushedOps)
	hammer(func(g int) {
		for i := 0; i < crushedOps; i++ {
			put(int64(g + crushedThreads*(i*7919%crushedOps)))
			if i%2 == 0 {
				continue
			}
			if v, ok := take(); ok {
				seen[v].Add(1)
			}
		}
	})
	last := int64(-1)
	for v, ok := take(); ok; v, ok = take() {
		if sorted && v < last {
			t.Fatalf("quiescent drain took %d after %d", v, last)
		}
		last = v
		seen[v].Add(1)
	}
	for v := range seen {
		if n := seen[v].Load(); n != 1 {
			t.Fatalf("value %d taken %d times, want 1", v, n)
		}
	}
}

// churnMind crushes m's capacity and has each goroutine arrive at and
// depart from its own two leaves, then arrive once more with a final value:
// the quiescent query must be the least final value, and empty once every
// leaf has departed.
func churnMind(t *testing.T, m *mindicator.PTO) {
	m.Domain().SetCapacity(1, 1)
	hammer(func(g int) {
		for i := 0; i < crushedOps; i++ {
			slot := g + crushedThreads*(i%2)
			m.Arrive(slot, int32(i*7919%crushedOps))
			m.Depart(slot)
		}
		m.Arrive(g, int32(100+g))
	})
	if v, ok := m.Query(); !ok || v != 100 {
		t.Fatalf("quiescent query = %d,%v, want 100", v, ok)
	}
	for g := 0; g < crushedThreads; g++ {
		m.Depart(g)
	}
	if v, ok := m.Query(); ok {
		t.Fatalf("query = %d after every leaf departed", v)
	}
}
