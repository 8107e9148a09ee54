package bench

import (
	"runtime"

	"repro/internal/hashtable"
	"repro/internal/semtx"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// Ablation A9: what the semantic layer buys over word-level validation
// alone, on the workload built to punish the latter — a
// 4-bucket hash table under a 64-key churn, so nearly every pair of
// concurrent operations collides on a bucket word while almost none
// collide on a key. The word-level arm runs each k-op body as one
// composed atomic operation: any concurrent same-bucket insert dirties a
// word in its footprint and aborts the whole body, though semantically
// nothing the body observed changed. The semantic arm runs the same bodies
// as open transactions: execution-time reads are small probes, and commit
// revalidates only the key-presence predicates — a same-bucket
// different-key insert is invisible to it.

// a9Body is the shared transaction shape: reads + mutations per body, and
// the modeled computation between ops (a9Work xorshift rounds each). The
// work is what separates the arms: the word-level arm must hold its
// speculative window open across all of it, so concurrent bucket writes
// land inside the window and abort it; the semantic arm's probes and
// commit are each brief, and the work runs outside any window.
const (
	a9Reads   = 4
	a9Writes  = 2
	a9Buckets = 4
	a9Keys    = 64
	a9Work    = 400
)

// a9Spin models one op's computation, yielding periodically so the work is
// preemptible — on few-core machines the interleaving, not raw cycles, is
// what puts other threads' commits inside a long speculative window. The
// returned value keeps the loop from being optimized away; callers fold it
// into their RNG state.
func a9Spin(seed uint64) uint64 {
	x := seed | 1
	for i := 0; i < a9Work; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i&127 == 0 {
			runtime.Gosched()
		}
	}
	return x
}

// measureA9 runs txnsPer bodies per thread in one arm and returns the
// throughput (txns/ms) plus the per-1000-txns word-level abort and
// semantic-retry rates.
func measureA9(threads, txnsPer int, semantic bool) (tput, wordAborts, semRetries float64) {
	reg := telemetry.NewRegistry()
	pol := speculate.Fixed(0).WithMetrics(reg)
	siteName := "a9/word"
	if semantic {
		siteName = "a9/semantic"
	}
	m := txn.New(0).WithPolicyAt(pol, siteName)
	h := hashtable.NewPTOTableIn(m.Domain(), a9Buckets, 0)
	r := m.Structures()
	r.AddSet("hot", h)
	for i := 0; i < a9Keys/2; i++ {
		k := int64(splitmixRand(uint64(i)) % a9Keys)
		m.Atomic(func(c *txn.Ctx) { h.TxInsert(c, k) })
	}
	open := reg.Open(siteName)
	sm := semtx.New(m, r).WithTelemetry(open)
	before := reg.Site(siteName).Snapshot()

	w := &wallRun{threads: threads, ops: txnsPer}
	tput = w.run(func(_ int, rnd uint64) int64 {
		next := func() uint64 {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			return rnd
		}
		if semantic {
			sm.Run(func(tx *semtx.Tx[*txn.Ctx, int64]) error {
				for j := 0; j < a9Reads; j++ {
					tx.Get("hot", int64(next()%a9Keys))
					rnd ^= a9Spin(rnd)
				}
				for j := 0; j < a9Writes; j++ {
					k := int64(next() % a9Keys)
					if next()&1 == 0 {
						tx.Put("hot", k)
					} else {
						tx.Delete("hot", k)
					}
					rnd ^= a9Spin(rnd)
				}
				return nil
			})
		} else {
			m.Atomic(func(c *txn.Ctx) {
				for j := 0; j < a9Reads; j++ {
					h.TxContains(c, int64(next()%a9Keys))
					rnd ^= a9Spin(rnd)
				}
				for j := 0; j < a9Writes; j++ {
					k := int64(next() % a9Keys)
					if next()&1 == 0 {
						h.TxInsert(c, k)
					} else {
						h.TxRemove(c, k)
					}
					rnd ^= a9Spin(rnd)
				}
			})
		}
		return 1
	})
	txns := float64(threads * txnsPer)
	delta := reg.Site(siteName).Snapshot().Delta(before)
	wordAborts = float64(delta.Conflicts) / txns * 1000
	semRetries = float64(open.SemRetries.Load()) / txns * 1000
	return
}

// AblationSemantic is A9: semantic vs word-level validation under the
// bucket-collision-heavy workload, reporting throughput (txns/ms) and —
// in the rate series, where the Y value is events per 1000 transactions —
// how often each arm paid an abort. The word-level arm's aborts are
// almost entirely semantic false positives here (different keys, same
// bucket); the semantic arm's sem-retry series counts the only aborts that
// survive the predicate check, and its word-abort series shrinks with the
// commit window.
func AblationSemantic(scale float64) Figure {
	txnsPer := int(6000 * scale)
	if txnsPer < 300 {
		txnsPer = 300
	}
	f := Figure{
		ID:     "Ablation A9",
		Title:  "Semantic vs word-level validation, 4-bucket hash table (wall clock; rates per 1k txns)",
		YLabel: "txns/ms | events/1k",
	}
	sem := Series{Name: "Semantic open txns (txns/ms)"}
	str := Series{Name: "Word-level composed (txns/ms)"}
	semAborts := Series{Name: "Semantic word-aborts /1k txns"}
	semRetr := Series{Name: "Semantic sem-retries /1k txns"}
	strAborts := Series{Name: "Word-level word-aborts /1k txns"}
	for _, threads := range []int{2, 4, 8} {
		st, sa, sr := measureA9(threads, txnsPer, true)
		tt, ta, _ := measureA9(threads, txnsPer, false)
		sem.Points = append(sem.Points, Point{Threads: threads, Throughput: st})
		str.Points = append(str.Points, Point{Threads: threads, Throughput: tt})
		semAborts.Points = append(semAborts.Points, Point{Threads: threads, Throughput: sa})
		semRetr.Points = append(semRetr.Points, Point{Threads: threads, Throughput: sr})
		strAborts.Points = append(strAborts.Points, Point{Threads: threads, Throughput: ta})
	}
	f.Series = []Series{sem, str, semAborts, semRetr, strAborts}
	return f
}
