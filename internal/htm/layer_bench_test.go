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

// BenchmarkReadWalk200 is a search path: 200 reads of 200 Vars, each logged
// for commit to re-check.
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
// share of walks that writer aborted, and it must be zero: a read touches
// its Var and nothing else, so a writer of a Var the walk never reads — held
// stripe, aliased or not — cannot be met. (It was about one per walk while a
// read was judged by its stripe's version, and 0.07 while a reader still
// looked at the stripe to see whether it was held.)
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
	aborts := d.Stats().Conflicts
	b.ReportMetric(float64(aborts)/float64(b.N), "aborts/op")
	if aborts != 0 {
		b.Errorf("%d of %d walks aborted on a writer of a Var they never read", aborts, b.N)
	}
}

// BenchmarkDirectLoad, BenchmarkDirectStore and BenchmarkDirectCAS are the
// per-word cost of the non-transactional path: two looks at the Var's word
// around the cell; and a stripe, the lock bit, a cell, a clock bump and a
// stamp — the writer-side price of keeping readers off the stripes.
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

func BenchmarkDirectCAS(b *testing.B) {
	d := NewDomain(0, 0)
	vars := benchVars(d, 64)
	for _, v := range vars {
		Store(nil, v, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !CAS(nil, vars[i&63], i>>6, i>>6+1) {
			b.Fatal("uncontended CAS failed")
		}
	}
}

// BenchmarkMultiCAS8 and BenchmarkMultiValidate8 are an 8-leg fallback
// publication (claims, stripes, lock bits, decision, stamps, release) and an
// 8-leg read-only fallback commit (two looks at eight words).
func BenchmarkMultiCAS8(b *testing.B) {
	d := NewDomain(0, 0)
	vars := distinctStripeVars(d, 8)
	for _, v := range vars {
		Store(nil, v, 0)
	}
	ents := make([]Entry, len(vars))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range vars {
			ents[j] = NewUpdate(v, i, i+1)
		}
		if !MultiCAS(ents...) {
			b.Fatal("uncontended MultiCAS failed")
		}
	}
}

func BenchmarkMultiValidate8(b *testing.B) {
	d := NewDomain(0, 0)
	ents := make([]Entry, 8)
	for i, v := range distinctStripeVars(d, 8) {
		ents[i] = NewUpdate(v, i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !MultiValidate(ents...) {
			b.Fatal("validation of unchanged Vars failed")
		}
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

// TestAllocsMultiValidate8: a MultiValidate over 8 entries costs the list of
// the words it saw, and nothing per stripe: it looks at none.
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
	}); got > 1 {
		t.Errorf("MultiValidate over 8 entries: %v allocs, want at most 1", got)
	}
}
