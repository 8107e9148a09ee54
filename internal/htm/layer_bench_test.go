package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/israce"
)

// The benchmarks in this file are the engine's own layer of the runtime
// clock (ROADMAP perf-ledger (b)): one attempt of each basic shape, single
// goroutine, no conflicts. TestAllocsPerAttempt pins what they report with
// -benchmem: an attempt allocates the cells it publishes and nothing else.

var benchSink int

func benchVars(d *Domain, n int) []*Var[int] {
	vars := make([]*Var[int], n)
	for i := range vars {
		vars[i] = NewVar(d, i)
	}
	return vars
}

func emptyTxn(tx *Tx) {}

func BenchmarkEmptyTxn(b *testing.B) {
	d := NewDomain(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Atomically(emptyTxn)
	}
}

func BenchmarkRead1(b *testing.B) {
	d := NewDomain(0, 0)
	v := NewVar(d, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Atomically(func(tx *Tx) { benchSink += Load(tx, v) })
	}
}

func benchRW(b *testing.B, n int) {
	d := NewDomain(0, 0)
	vars := benchVars(d, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Atomically(func(tx *Tx) {
			for _, v := range vars {
				Store(tx, v, Load(tx, v)+1)
			}
		})
	}
}

func BenchmarkRW1(b *testing.B) { benchRW(b, 1) }
func BenchmarkRW8(b *testing.B) { benchRW(b, 8) }

// distinctStripeVars returns n Vars of d no two of which share a stripe.
func distinctStripeVars(d *Domain, n int) []*Var[int] {
	t := d.table()
	taken := make(map[uint32]bool, n)
	var vars []*Var[int]
	for len(vars) < n {
		v := NewVar(d, len(vars))
		if idx := t.indexOf(v.id); !taken[idx] {
			taken[idx] = true
			vars = append(vars, v)
		}
	}
	return vars
}

// BenchmarkReadWalk200 is a search path: 200 reads, each the first touch of
// its stripe, so every one appends a read record.
func BenchmarkReadWalk200(b *testing.B) {
	d := NewDomainStripes(0, 0, 1024)
	vars := distinctStripeVars(d, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Atomically(func(tx *Tx) {
			for _, v := range vars {
				benchSink += Load(tx, v)
			}
		})
	}
}

// BenchmarkReadWalk2000 is a 16-key MoveAll's read set — 2000 Vars, so every
// stripe of the default table several times over — walked while a second
// goroutine keeps writing one Var the walk never reads. aborts/op is the
// share of walks that writer aborted: about one per walk while a read was
// judged by its stripe's version, and what is left under per-Var stamps is
// meeting the writer's stripe while it is held.
func BenchmarkReadWalk2000(b *testing.B) {
	d := NewDomain(0, 0)
	vars := benchVars(d, 2000)
	w := NewVar(d, 0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			Store(nil, w, i)
			for spin := 0; spin < 1000; spin++ { // a few stores per walk, the stripe mostly free
				runtime.KeepAlive(spin)
			}
			runtime.Gosched()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Atomically(func(tx *Tx) {
			for _, v := range vars {
				benchSink += Load(tx, v)
			}
		})
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	b.ReportMetric(float64(d.Stats().Conflicts)/float64(b.N), "aborts/op")
}

// BenchmarkDirectLoad and BenchmarkDirectStore are the per-word cost of the
// non-transactional path: a seqlock window on the Var's stripe, and a stripe
// lock, a cell, a clock bump and a stamp.
func BenchmarkDirectLoad(b *testing.B) {
	d := NewDomain(0, 0)
	vars := benchVars(d, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += Load(nil, vars[i&63])
	}
}

func BenchmarkDirectStore(b *testing.B) {
	d := NewDomain(0, 0)
	vars := benchVars(d, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Store(nil, vars[i&63], i)
	}
}

func TestAllocsPerAttempt(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	d := NewDomainStripes(0, 0, 1024)
	vars := distinctStripeVars(d, 200)
	rw := func(n int) func() {
		return func() {
			d.Atomically(func(tx *Tx) {
				for _, v := range vars[:n] {
					Store(tx, v, Load(tx, v)+1)
				}
			})
		}
	}
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"empty", 0, func() { d.Atomically(emptyTxn) }},
		{"read walk 200", 0, func() {
			d.Atomically(func(tx *Tx) {
				for _, v := range vars {
					benchSink += Load(tx, v)
				}
			})
		}},
		{"explicit abort", 0, func() { d.Atomically(func(tx *Tx) { tx.Abort(1) }) }},
		{"rw 1", 1, rw(1)},
		{"rw 8", 8, rw(8)},
		{"rw 200", 200, rw(200)},
	} {
		if got := testing.AllocsPerRun(200, c.f); got != c.want {
			t.Errorf("%s attempt: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// TestAllocsMultiValidate8: a MultiValidate over 8 entries on 8 stripes costs
// the stripe bitmap plus the growth of its stripe and snapshot lists, built
// once per call — 9 allocations, what a retry-free call cost before.
func TestAllocsMultiValidate8(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	d := NewDomain(0, 0)
	ents := make([]Entry, 8)
	for i, v := range distinctStripeVars(d, 8) {
		ents[i] = NewUpdate(v, i, i)
	}
	if got := testing.AllocsPerRun(200, func() {
		if !MultiValidate(ents...) {
			t.Error("validation of unchanged Vars failed")
		}
	}); got > 9 {
		t.Errorf("MultiValidate over 8 entries: %v allocs, want at most 9", got)
	}
}
