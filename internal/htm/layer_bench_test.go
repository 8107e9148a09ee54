package htm

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/israce"
)

// The benchmarks in this file are the engine's own layer of the runtime
// clock (ROADMAP perf-ledger (b)): one attempt of each basic shape, single
// goroutine, no conflicts. TestAllocsPerAttempt pins what they report with
// -benchmem: an attempt allocates the boxes it publishes and nothing else,
// and a Var of pointer type has no box.

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

// BenchmarkReadWalk200 is a search path: 200 reads of 200 Vars, each logged
// for commit to re-check.
func BenchmarkReadWalk200(b *testing.B) {
	d := NewDomain(0, 0)
	vars := benchVars(d, 200)
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

// BenchmarkReadWalk2000 is a 16-key MoveAll's read set — 2000 Vars — walked
// while a second goroutine keeps writing one Var the walk never reads.
// aborts/op is the share of walks that writer aborted, and it must be zero: a
// read touches its Var and nothing else, so a writer of a Var the walk never
// reads cannot be met.
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
			for spin := 0; spin < 1000; spin++ { // a few stores per walk
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
// around its value; and the lock bit, a look at the claim slot, the value (a
// box: these are Var[int]), a clock bump and a stamp.
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
// publication (claims, lock bits, decision, stamps, release) and an
// 8-leg read-only fallback commit (two looks at eight words).
func BenchmarkMultiCAS8(b *testing.B) {
	d := NewDomain(0, 0)
	vars := benchVars(d, 8)
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
	for i, v := range benchVars(d, 8) {
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

// bytesPerRun is testing.AllocsPerRun for bytes. The counter it reads is the
// whole process's, so it reports the least of three measurements: the
// runtime's own allocations come and go, f's are there every time.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}

type benchNode struct{ k int }

func TestAllocsPerAttempt(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	d := NewDomain(0, 0)
	vars := benchVars(d, 200)
	rw := func(n int) func() {
		return func() {
			d.Atomically(func(tx *Tx) {
				for _, v := range vars[:n] {
					Store(tx, v, Load(tx, v)+1)
				}
			})
		}
	}
	// The same on Vars of pointer type, swapping two nodes.
	nodes := [2]*benchNode{{0}, {1}}
	links := make([]*Var[*benchNode], 8)
	for i := range links {
		links[i] = NewVar(d, nodes[0])
	}
	other := func(n *benchNode) *benchNode { return nodes[1-n.k] }
	rwLinks := func(n int) func() {
		return func() {
			d.Atomically(func(tx *Tx) {
				for _, v := range links[:n] {
					Store(tx, v, other(Load(tx, v)))
				}
			})
		}
	}
	word := NewVar(d, uint64(0))
	for _, c := range []struct {
		name  string
		want  float64
		bytes uint64
		f     func()
	}{
		{"empty", 0, 0, func() { d.Atomically(emptyTxn) }},
		{"read walk 200", 0, 0, func() {
			d.Atomically(func(tx *Tx) {
				for _, v := range vars {
					benchSink += Load(tx, v)
				}
			})
		}},
		{"explicit abort", 0, 0, func() { d.Atomically(func(tx *Tx) { tx.Abort(1) }) }},
		{"rw 1", 1, 8, rw(1)},
		{"rw 8", 8, 64, rw(8)},
		{"rw 200", 200, 1600, rw(200)},
		{"rw 1, pointers", 0, 0, rwLinks(1)},
		{"rw 8, pointers", 0, 0, rwLinks(8)},
		{"direct Store, pointer", 0, 0, func() { Store(nil, links[0], other(Load(nil, links[0]))) }},
		{"direct CAS, pointer", 0, 0, func() {
			if n := Load(nil, links[0]); !CAS(nil, links[0], n, other(n)) {
				t.Error("uncontended CAS failed")
			}
		}},
		{"direct Store, uint64", 1, 8, func() { Store(nil, word, Load(nil, word)+1) }},
		{"direct CAS, uint64", 1, 8, func() {
			if x := Load(nil, word); !CAS(nil, word, x, x+1) {
				t.Error("uncontended CAS failed")
			}
		}},
		{"direct Add", 1, 8, func() { Add(nil, word, 1) }},
		{"failed direct CAS", 0, 0, func() { CAS(nil, word, ^uint64(0), 0) }},
	} {
		if got := testing.AllocsPerRun(200, c.f); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
		if got := bytesPerRun(200, c.f); got != c.bytes {
			t.Errorf("%s: %d bytes allocated, want %d", c.name, got, c.bytes)
		}
	}
}

// TestAllocsMultiCAS: a MultiCAS over entries its caller built allocates its
// descriptor and a box per write leg whose Var needs one — nothing for
// sorting the entries, nothing per lock bit, per claim or per release.
func TestAllocsMultiCAS(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	d := NewDomain(0, 0)
	nodes := [2]*benchNode{{0}, {1}}
	// A leg is a Var of its own with the entry that moves it from state 0 to
	// state 1 and the one that moves it back.
	pointerLeg := func() [2]Entry {
		v := NewVar(d, nodes[0])
		return [2]Entry{NewUpdate(v, nodes[0], nodes[1]), NewUpdate(v, nodes[1], nodes[0])}
	}
	wordLeg := func() [2]Entry {
		v := NewVar(d, uint64(0))
		return [2]Entry{NewUpdate(v, uint64(0), uint64(1)), NewUpdate(v, uint64(1), uint64(0))}
	}
	// flip returns a MultiCAS over n legs, there and, the next time, back.
	flip := func(n int, leg func() [2]Entry) func() {
		var legs [2][]Entry
		for i := 0; i < n; i++ {
			l := leg()
			legs[0], legs[1] = append(legs[0], l[0]), append(legs[1], l[1])
		}
		state := 0
		return func() {
			// Descending ids, so the sort has work to do.
			slices.Reverse(legs[state])
			if !MultiCAS(legs[state]...) {
				t.Error("uncontended MultiCAS failed")
			}
			state = 1 - state
		}
	}
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"MultiCAS, 8 pointer legs", 1, flip(8, pointerLeg)},
		{"MultiCAS, 16 pointer legs", 1, flip(stackLegs, pointerLeg)},
		{"MultiCAS, 8 uint64 legs", 1 + 8, flip(8, wordLeg)},
	} {
		if got := testing.AllocsPerRun(200, c.f); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// TestAllocsMultiValidate8: a MultiValidate over 8 entries, or stackLegs of
// them, keeps the words it saw on its stack.
func TestAllocsMultiValidate8(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	d := NewDomain(0, 0)
	ents := make([]Entry, stackLegs)
	for i, v := range benchVars(d, stackLegs) {
		ents[i] = NewUpdate(v, i, i)
	}
	for _, n := range []int{8, stackLegs} {
		if got := testing.AllocsPerRun(200, func() {
			if !MultiValidate(ents[:n]...) {
				t.Error("validation of unchanged Vars failed")
			}
		}); got != 0 {
			t.Errorf("MultiValidate over %d entries: %v allocs, want 0", n, got)
		}
	}
}
