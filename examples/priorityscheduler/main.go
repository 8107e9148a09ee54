// Priority scheduler: an earliest-deadline-first task dispatcher built on
// the PTO-accelerated Mound priority queue (§3.1 of the paper).
//
// Producers submit jobs tagged with a deadline; workers repeatedly claim the
// job with the earliest deadline. The Mound's removeMin pops the root's
// sorted list and restores the heap invariant with DCAS swaps; in the PTO
// variant each DCAS/DCSS runs as one transaction (retried four times, the
// paper's tuned value) before the descriptor-based software protocol runs.
//
// Run with: go run ./examples/priorityscheduler
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mound"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

const (
	producers   = 3
	workers     = 3
	jobsPerProd = 3000
	deadlineMax = 1 << 20
)

func main() {
	reg := telemetry.NewRegistry()
	q := mound.NewPTO(14, 0).WithPolicy(speculate.Fixed(0).WithMetrics(reg))

	var submitted, executed atomic.Int64
	var lateness atomic.Int64 // counts inversions observed by each worker
	var wg sync.WaitGroup

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			seed := uint64(p)*2654435761 + 12345
			for i := 0; i < jobsPerProd; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				q.Insert(int64(seed >> 44 % deadlineMax))
				submitted.Add(1)
			}
		}(p)
	}

	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for {
				deadline, ok := q.RemoveMin()
				if !ok {
					select {
					case <-done:
						// Drain whatever raced in after the producers quit.
						if _, ok := q.RemoveMin(); !ok {
							return
						}
						executed.Add(1)
						continue
					default:
						continue
					}
				}
				// A worker's own claims are not globally ordered while
				// producers race, but big backward jumps indicate trouble;
				// count them as a sanity signal.
				if deadline < last-deadlineMax/2 {
					lateness.Add(1)
				}
				last = deadline
				executed.Add(1)
			}
		}()
	}

	// Close the door once all producers are finished.
	go func() {
		for submitted.Load() < producers*jobsPerProd {
		}
		close(done)
	}()

	wg.Wait()
	// Drain the remainder on the main goroutine.
	for {
		if _, ok := q.RemoveMin(); !ok {
			break
		}
		executed.Add(1)
	}

	fmt.Printf("submitted=%d executed=%d (all jobs dispatched exactly once: %v)\n",
		submitted.Load(), executed.Load(), submitted.Load() == executed.Load())
	fmt.Printf("large priority inversions observed: %d\n", lateness.Load())
	s := reg.Site("mound/dcas").Snapshot()
	total := s.Commits + s.Fallbacks
	fmt.Printf("DCAS/DCSS operations: %d transactional, %d software-descriptor fallbacks, %d aborted attempts\n",
		s.Commits, s.Fallbacks, s.Attempts-s.Commits)
	if total > 0 {
		fmt.Printf("speculation success rate: %.1f%%\n", 100*float64(s.Commits)/float64(total))
	}
}
