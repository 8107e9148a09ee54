package htm

import (
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
