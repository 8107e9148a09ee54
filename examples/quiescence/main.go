// Quiescence detection: the Mindicator's headline use case (§3.1).
//
// Writers process batches tagged with monotonically increasing epochs. Each
// writer "arrives" at the Mindicator with the epoch it is currently
// processing and "departs" when done; the garbage collector queries the
// minimum in-flight epoch to decide which retired batches are safe to free
// — exactly the quiescence pattern of Liu, Luchangco, and Spear's original
// Mindicator paper. The PTO variant commits most arrive/depart pairs as one
// transaction with a single +2 version store per tree node.
//
// Run with: go run ./examples/quiescence
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mindicator"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

const (
	writers = 8
	batches = 4000
)

func main() {
	reg := telemetry.NewRegistry()
	mind := mindicator.NewPTO(64, 0).WithPolicy(speculate.Fixed(0).WithMetrics(reg))

	var nextEpoch atomic.Int64
	var freed atomic.Int64
	var badFrees atomic.Int64
	minInFlight := make([]atomic.Int64, writers) // ground truth per writer
	for i := range minInFlight {
		minInFlight[i].Store(int64(1) << 40)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// The collector: frees everything below the minimum in-flight epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastFreed := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Two agreeing reads damp the transient staleness window of the
			// repair protocol (see internal/mindicator's package docs).
			limit1, ok1 := mind.Query()
			limit2, ok2 := mind.Query()
			if ok1 != ok2 || limit1 != limit2 {
				continue
			}
			horizon := nextEpoch.Load()
			if ok1 {
				horizon = int64(limit1)
			}
			// Everything strictly below the horizon is quiescent. Validate
			// against ground truth: no writer may still be inside a freed
			// epoch.
			for e := lastFreed + 1; e < horizon; e++ {
				for w := range minInFlight {
					if minInFlight[w].Load() == e {
						badFrees.Add(1)
					}
				}
				freed.Add(1)
			}
			if horizon-1 > lastFreed {
				lastFreed = horizon - 1
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				// Arrive with a conservative lower bound BEFORE claiming the
				// epoch: once the claim is visible to the collector, the
				// mindicator already holds a value ≤ it, so the horizon can
				// never overtake an in-flight batch.
				bound := nextEpoch.Load()
				mind.Arrive(w, int32(bound&0x7FFFFFF))
				epoch := nextEpoch.Add(1) - 1
				minInFlight[w].Store(epoch)
				// ... process the batch ...
				mind.Depart(w)
				minInFlight[w].Store(int64(1) << 40)
			}
		}(w)
	}

	// Wait for the writers, then stop the collector.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		if nextEpoch.Load() >= writers*batches {
			break
		}
	}
	close(stop)
	<-done

	fmt.Printf("processed %d batches across %d writers\n", nextEpoch.Load(), writers)
	fmt.Printf("collector freed %d epochs; premature frees observed: %d\n",
		freed.Load(), badFrees.Load())
	if _, ok := mind.Query(); !ok {
		fmt.Println("mindicator is empty at shutdown (all writers departed)")
	}
	s := reg.Site("mindicator/update").Snapshot()
	fmt.Printf("arrive/depart operations: %d transactional, %d lock-free fallbacks, %d aborted attempts\n",
		s.Commits, s.Fallbacks, s.Attempts-s.Commits)
}
