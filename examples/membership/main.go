// Membership service: a session registry built on the dynamic-sized
// nonblocking hash table with prefix transactions (§3.3/§4.5), the table
// every ptoserver shard runs.
//
// Sessions register and deregister under churn while health checkers probe
// membership concurrently. Each operation first runs as a prefix
// transaction over the unchanged copy-on-write algorithm; a committed
// lookup skips the epoch reclaimer's Enter/Exit brackets altogether, which
// is where the PTO table earns its speed. The table grows itself as the
// population rises, and an operation whose transaction cannot finish falls
// back to the original protocol.
//
// Run with: go run ./examples/membership
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hashtable"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

const (
	nodes    = 4
	sessions = 20000
	churners = 4
	probers  = 2
)

func sessionID(node int, slot int64) int64 {
	return int64(node)*1_000_000 + slot
}

func main() {
	metrics := telemetry.NewRegistry()
	reg := hashtable.NewPTOTable(64, 0).WithPolicy(speculate.Fixed(0).WithMetrics(metrics))

	// Phase 1: mass registration from several nodes.
	var regWG sync.WaitGroup
	for n := 0; n < nodes; n++ {
		regWG.Add(1)
		go func(n int) {
			defer regWG.Done()
			for s := int64(0); s < sessions/nodes; s++ {
				reg.Insert(sessionID(n, s))
			}
		}(n)
	}
	regWG.Wait()
	fmt.Printf("registered %d sessions across %d buckets (%d resizes)\n",
		reg.Len(), reg.Size(), reg.Resizes())

	// Phase 2: churn with concurrent probing.
	var probes, hits atomic.Int64
	var joined, left atomic.Int64
	stop := make(chan struct{})
	var probeWG, churnWG sync.WaitGroup

	for p := 0; p < probers; p++ {
		probeWG.Add(1)
		go func(p int) {
			defer probeWG.Done()
			seed := uint64(p) + 99
			for {
				select {
				case <-stop:
					return
				default:
				}
				seed = seed*6364136223846793005 + 1442695040888963407
				id := sessionID(int(seed>>33)%nodes, int64(seed>>40)%(sessions/nodes))
				probes.Add(1)
				if reg.Contains(id) {
					hits.Add(1)
				}
			}
		}(p)
	}
	for c := 0; c < churners; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			seed := uint64(c)*7919 + 1
			for i := 0; i < 8000; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				id := sessionID(c, int64(seed>>40)%(sessions/nodes))
				if seed&1 == 0 {
					if reg.Insert(id) {
						joined.Add(1)
					}
				} else {
					if reg.Remove(id) {
						left.Add(1)
					}
				}
			}
		}(c)
	}
	churnWG.Wait()
	close(stop)
	probeWG.Wait()

	fmt.Printf("churn: %d joins, %d leaves; population now %d\n",
		joined.Load(), left.Load(), reg.Len())
	fmt.Printf("probes served concurrently: %d (%d hits)\n", probes.Load(), hits.Load())
	var commits, fallbacks, aborts uint64 // over insert, remove and contains
	for _, s := range metrics.Snapshot().Sites {
		commits, fallbacks, aborts = commits+s.Commits, fallbacks+s.Fallbacks, aborts+s.Attempts-s.Commits
	}
	fmt.Printf("speculative commits=%d fallbacks=%d aborted attempts=%d\n",
		commits, fallbacks, aborts)
	fmt.Printf("lookups committed without touching the reclaimer: %d\n",
		metrics.Site("hashtable/contains").Snapshot().Commits)
}
