package semtx_test

import (
	"testing"

	"repro/internal/bst"
	"repro/internal/israce"
	"repro/internal/semtx"
	"repro/internal/txn"
)

var benchHits int

// run4Op returns a four-operation open transaction — a lookup, a put and a
// delete that net to nothing, an enqueue — over e's registry: the shape of a
// small /v1/txn body, and the semtx layer's share of the runtime clock.
func run4Op(e *env) func() {
	n := int64(0)
	return func() {
		n++
		e.sm.Run(func(tx *semtx.Tx[*txn.Ctx, int64]) error {
			if tx.Get("hot", 64) {
				benchHits++
			}
			tx.Put("hot", 703)
			tx.Delete("hot", 703)
			tx.Enqueue("ingress", n)
			return nil
		})
	}
}

// wideKeys is how many keys of each set a wide transaction touches.
const wideKeys = 10

// runWide returns a transaction of the /v1/txn and envelope shape — three
// sets, wideKeys keys of each (eight lookups, one key put, the key put last
// time deleted), an enqueue, a dequeue — and byHand, the same publications
// made in one txn.Atomic with no open transaction around them: what the
// commit must allocate whatever semtx does.
func runWide(e *env) (run, byHand func()) {
	e.tm.Structures().AddSet("aux", bst.NewPTOIn(e.tm.Domain(), 0, 0))
	e.q.Enqueue(0)
	sets := []string{"hot", "cold", "aux"}
	n := int64(1000)
	run = func() {
		n++
		e.sm.Run(func(tx *semtx.Tx[*txn.Ctx, int64]) error {
			for _, s := range sets {
				for k := int64(0); k < wideKeys-2; k++ {
					if tx.Get(s, 3*k) {
						benchHits++
					}
				}
				tx.Put(s, n)
				tx.Delete(s, n-1)
			}
			tx.Enqueue("ingress", n)
			tx.Dequeue("ingress")
			return nil
		})
	}
	byHand = func() {
		n++
		e.tm.Atomic(func(c *txn.Ctx) {
			for _, s := range sets {
				set := e.tm.Structures().Set(s)
				set.TxInsert(c, n)
				set.TxRemove(c, n-1)
			}
			e.q.TxDequeue(c)
			e.q.TxEnqueue(c, n)
		})
	}
	return run, byHand
}

func benchEnv() *env {
	e := newEnv()
	for k := int64(0); k < 512; k += 2 {
		e.h.Insert(k)
	}
	return e
}

func BenchmarkRun4Op(b *testing.B) {
	f := run4Op(benchEnv())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

func BenchmarkRunWide(b *testing.B) {
	f, _ := runWide(benchEnv())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

// TestAllocsRun4Op bounds what the four-op transaction allocates: the
// enqueued node, and room for one more. The Tx, its items, its index, its
// probe and commit bodies and its structure bindings come from the
// manager's pool, so semtx itself allocates nothing here; it read 24 while
// each Run made them afresh (27 while every published value had a box, 59
// before the Tx and Ctx beneath were pooled).
func TestAllocsRun4Op(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	if got := testing.AllocsPerRun(200, run4Op(benchEnv())); got > 2 {
		t.Errorf("four-op open transaction: %v allocs, want at most 2", got)
	}
}

// TestAllocsRunWide pins the wide transaction at its publications: it may
// allocate what the same inserts, removes, enqueue and dequeue allocate in
// one bare txn.Atomic, and nothing for its 32 items, 31 probes and three
// structures' worth of bookkeeping. Both sides run warm: the pooled Tx, Ctx
// and htm.Tx beneath grow their slices over the first few hundred runs.
func TestAllocsRunWide(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	run, _ := runWide(benchEnv())
	_, byHand := runWide(benchEnv())
	for i := 0; i < 500; i++ {
		run()
		byHand()
	}
	got, want := testing.AllocsPerRun(1000, run), testing.AllocsPerRun(1000, byHand)
	if got > want {
		t.Errorf("wide open transaction: %v allocs, its publications alone %v", got, want)
	}
}
