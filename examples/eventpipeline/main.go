// Event pipeline: a two-stage stream processor built on the PTO-accelerated
// Michael–Scott queues (this repository's §5 extension of the paper's
// technique to the classic double-checked queue).
//
// Stage 1 workers parse raw events and pass them to stage 2 through a FIFO;
// stage 2 workers aggregate. The PTO enqueue links the node and swings the
// tail in one transaction, so the queue's lagging-tail state and its
// double-checked snapshots vanish from the common case.
//
// Run with: go run ./examples/eventpipeline
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/msqueue"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

const (
	sources      = 3
	parsers      = 3
	aggregators  = 2
	eventsPerSrc = 5000
	totalEvents  = sources * eventsPerSrc
)

func main() {
	// One registry per queue: both register the same site names.
	rawReg, parsedReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	raw := msqueue.NewPTO(0).WithPolicy(speculate.Fixed(0).WithMetrics(rawReg))       // source -> parser
	parsed := msqueue.NewPTO(0).WithPolicy(speculate.Fixed(0).WithMetrics(parsedReg)) // parser -> aggregator

	var wg sync.WaitGroup

	// Stage 0: sources emit raw events (value = source*1e6 + seq).
	for s := 0; s < sources; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < eventsPerSrc; i++ {
				raw.Enqueue(int64(s)*1_000_000 + int64(i))
			}
		}(s)
	}

	// Stage 1: parsers transform events and forward them.
	var parsedCount atomic.Int64
	for p := 0; p < parsers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for parsedCount.Load() < totalEvents {
				v, ok := raw.Dequeue()
				if !ok {
					continue
				}
				parsed.Enqueue(v * 2) // "parse"
				parsedCount.Add(1)
			}
		}()
	}

	// Stage 2: aggregators fold the stream.
	var sum, count atomic.Int64
	for a := 0; a < aggregators; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for count.Load() < totalEvents {
				v, ok := parsed.Dequeue()
				if !ok {
					continue
				}
				sum.Add(v)
				count.Add(1)
			}
		}()
	}

	wg.Wait()

	// Expected sum: for each source s, sum over i of 2*(s*1e6+i).
	var want int64
	for s := 0; s < sources; s++ {
		for i := 0; i < eventsPerSrc; i++ {
			want += 2 * (int64(s)*1_000_000 + int64(i))
		}
	}
	fmt.Printf("events: %d processed (want %d); aggregate %d (want %d) — exact: %v\n",
		count.Load(), totalEvents, sum.Load(), want, sum.Load() == want)

	for name, reg := range map[string]*telemetry.Registry{"raw": rawReg, "parsed": parsedReg} {
		e := reg.Site("msqueue/enqueue").Snapshot()
		d := reg.Site("msqueue/dequeue").Snapshot()
		fmt.Printf("%s queue: enq tx=%d fb=%d ab=%d | deq tx=%d fb=%d ab=%d\n",
			name, e.Commits, e.Fallbacks, e.Attempts-e.Commits, d.Commits, d.Fallbacks, d.Attempts-d.Commits)
	}
}
