package bench

import (
	"sync"
	"sync/atomic"
	"time"
)

// wallRun is the one wall-clock driver behind the ablations measured on the
// Go runtime rather than the simulated machine (A6 and A9). Their numbers
// vary with the host, so they print only under -ablations or by ID and no
// golden file holds them.
//
// threads goroutines start, then are released together; each draws its own
// xorshift stream, seeded by its index, and makes ops calls of the body.
type wallRun struct {
	threads int
	ops     int
}

// run drives body, which gets its goroutine's index and next random draw
// and returns the units the call completed, and returns the units all
// goroutines completed per millisecond of wall time.
func (w *wallRun) run(body func(g int, rnd uint64) int64) float64 {
	var wg, ready, start sync.WaitGroup
	ready.Add(w.threads)
	start.Add(1)
	var total atomic.Int64
	for g := 0; g < w.threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := uint64(g)*0x9E3779B97F4A7C15 + 1
			ready.Done()
			start.Wait()
			var n int64
			for i := 0; i < w.ops; i++ {
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				n += body(g, rnd)
			}
			total.Add(n)
		}(g)
	}
	ready.Wait()
	begin := time.Now()
	start.Done()
	wg.Wait()
	elapsed := time.Since(begin)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(total.Load()) / (float64(elapsed.Nanoseconds()) / 1e6)
}
