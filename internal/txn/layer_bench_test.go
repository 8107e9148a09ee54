package txn_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/israce"
	"repro/internal/skiplist"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// The composition layer's own share of the runtime clock (ROADMAP
// perf-ledger (b)): one composed operation of each basic shape on one
// goroutine, on the prefix path and on the forced MultiCAS fallback.

// benchSets returns a manager (forced onto its fallback when fallback is
// set) with a 256-key hash table and a 256-key skiplist in its domain.
func benchSets(fallback bool) (*txn.Manager, *hashtable.PTOTable, *skiplist.PTOSet) {
	d := htm.NewDomain(0, 0)
	if fallback {
		d.SetCapacity(-1, -1)
	}
	m := txn.NewIn(d, 0)
	hot, cold := hashtable.NewPTOTableIn(d, 64, 0), skiplist.NewPTOSetIn(d, 0)
	for k := int64(0); k < 512; k += 2 {
		insert(m, hot, k)
		insert(m, cold, k)
	}
	return m, hot, cold
}

// flip returns a one-op Atomic that alternately inserts and removes key, so
// every call changes the set.
func flip(m *txn.Manager, s txn.Set, key int64) func() {
	in := false
	return func() {
		m.Atomic(func(c *txn.Ctx) {
			if in {
				s.TxRemove(c, key)
			} else {
				s.TxInsert(c, key)
			}
		})
		in = !in
	}
}

func run(b *testing.B, f func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

func BenchmarkAtomic1Op(b *testing.B) {
	m, hot, _ := benchSets(false)
	run(b, flip(m, hot, 701))
}

func BenchmarkAtomic1OpFallback(b *testing.B) {
	m, hot, _ := benchSets(true)
	run(b, flip(m, hot, 701))
}

var benchHits int

// readOnly1Op is one composed lookup in the skiplist: a search path of
// transactional reads and nothing to publish.
func readOnly1Op(m *txn.Manager, s *skiplist.PTOSet) func() {
	return func() {
		m.ReadOnly(func(c *txn.Ctx) {
			if s.TxContains(c, 64) {
				benchHits++
			}
		})
	}
}

func BenchmarkReadOnly1Op(b *testing.B) {
	m, _, cold := benchSets(false)
	run(b, readOnly1Op(m, cold))
}

func BenchmarkMoveAll16(b *testing.B) {
	m, hot, cold := benchSets(false)
	keys := make([]int64, 16)
	for i := range keys {
		keys[i] = int64(16000 + 2*i)
		insert(m, hot, keys[i])
	}
	var src, dst txn.Set = hot, cold
	run(b, func() {
		benchHits += txn.MoveAll(m, src, dst, keys...)
		src, dst = dst, src
	})
}

// BenchmarkMoveAll16Contended is BenchmarkMoveAll16 with a second goroutine
// flipping keys of two other sets in the same domain, through a manager of
// its own so that each side's fallbacks are counted apart. The flipper writes
// no Var a move reads or writes and the mover none of the flipper's, so the
// two must never meet: a read touches its Var and nothing else, a writer
// locks the Var it writes and nothing else. fallbacks/op, the mover's, is 0;
// flipfallbacks/op, the flipper's per move (a move lasts about 40 flips),
// reads 0.00003 — one fallback in a run of 30 000 moves.
func BenchmarkMoveAll16Contended(b *testing.B) {
	m, hot, cold := benchSets(false)
	reg := telemetry.NewRegistry()
	m.WithPolicy(speculate.Fixed(0).WithMetrics(reg))
	keys := make([]int64, 16)
	for i := range keys {
		keys[i] = int64(16000 + 2*i)
		insert(m, hot, keys[i])
	}
	d := m.Domain()
	fm, freg := txn.NewIn(d, 0), telemetry.NewRegistry()
	fm.WithPolicy(speculate.Fixed(0).WithMetrics(freg))
	flips := []func(){flip(fm, hashtable.NewPTOTableIn(d, 64, 0), 701), flip(fm, skiplist.NewPTOSetIn(d, 0), 703)}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			flips[i%len(flips)]()
		}
	}()
	before := reg.Snapshot().Composed[0].FallbackCommits
	var src, dst txn.Set = hot, cold
	run(b, func() {
		benchHits += txn.MoveAll(m, src, dst, keys...)
		src, dst = dst, src
	})
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	b.ReportMetric(float64(reg.Snapshot().Composed[0].FallbackCommits-before)/float64(b.N), "fallbacks/op")
	b.ReportMetric(float64(freg.Snapshot().Composed[0].FallbackCommits)/float64(b.N), "flipfallbacks/op")
}

// TestAllocsAtomic1Op pins a composed one-op update, an insert and a remove
// in turn, at exactly 2 allocations per op on the prefix path and 7 on the
// forced fallback (3 and 8 while the hash table built its count hooks per
// operation). On the prefix path both allocations are the hash table's,
// which builds its bucket anew; publishing the link to it costs nothing,
// the link is its Var's value word (4 while every published value had a
// box). On the forced fallback, 7 (17 while every claim and every release
// made a box too). An exact pin shows an allocation that comes back.
func TestAllocsAtomic1Op(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	for _, c := range []struct {
		name     string
		fallback bool
		want     float64
	}{{"prefix path", false, 2}, {"MultiCAS fallback", true, 7}} {
		m, hot, _ := benchSets(c.fallback)
		if got := testing.AllocsPerRun(200, flip(m, hot, 701)); got != c.want {
			t.Errorf("composed one-op Atomic, %s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// TestAllocsComposedReadOnly pins the prefix path's bookkeeping at zero: a
// composed lookup that commits read-only takes its Ctx and its Tx from
// their pools and publishes nothing.
func TestAllocsComposedReadOnly(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	m, _, cold := benchSets(false)
	if got := testing.AllocsPerRun(200, readOnly1Op(m, cold)); got != 0 {
		t.Errorf("composed one-op ReadOnly: %v allocs, want 0", got)
	}
}
