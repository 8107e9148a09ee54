package semtx_test

import (
	"testing"

	"repro/internal/israce"
	"repro/internal/semtx"
	"repro/internal/txn"
)

var benchHits int

// run4Op returns a four-operation open transaction — a lookup, a put and a
// delete that net to nothing, an enqueue — over e's registry: the shape of a
// small /v1/txn body, and the semtx layer's share of the runtime clock
// (ROADMAP perf-ledger (b)).
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

// TestAllocsRun4Op bounds what the four-op transaction allocates: semtx's
// own items and staging, the enqueued node and the boxes of the values it
// publishes that are not pointers — 24, which is what it reads today (27
// while every published value had a box, 59 before the Tx and Ctx beneath
// were pooled).
func TestAllocsRun4Op(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	if got := testing.AllocsPerRun(200, run4Op(benchEnv())); got > 24 {
		t.Errorf("four-op open transaction: %v allocs, want at most 24", got)
	}
}
