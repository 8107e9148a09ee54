// Quickstart: the Prefix Transaction Optimization (PTO) pattern in thirty
// lines, then the accelerated data structures in action.
//
// PTO (Liu, Zhou, Spear, SPAA 2015) accelerates an existing nonblocking
// data structure by attempting each operation as a speculative "prefix
// transaction" — stripped of CASes, fences, descriptors, and helping — and
// falling back to the original lock-free code when speculation fails. This
// repository emulates the required best-effort transactional memory in
// software (internal/htm) and reproduces the paper's performance results on
// a simulated multicore (cmd/ptobench); the structures used here are the
// real, concurrency-tested Go implementations.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"repro/internal/bst"
	"repro/internal/htm"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// counterPair keeps two counters whose difference is invariant: a toy
// structure showing the raw PTO pattern before the real data structures.
type counterPair struct {
	domain *htm.Domain
	a, b   *htm.Var[uint64]
	site   *speculate.Site
}

// newCounterPair records the site's outcomes into reg.
func newCounterPair(reg *telemetry.Registry) *counterPair {
	d := htm.NewDomain(0, 0)
	c := &counterPair{domain: d, a: htm.NewVar(d, uint64(0)), b: htm.NewVar(d, uint64(0))}
	c.site = speculate.Fixed(0).WithMetrics(reg).Site("quickstart/bump", 1,
		speculate.Level{Name: "pto", Attempts: 3})
	return c
}

// bump increments both counters atomically: a prefix transaction of two
// plain stores, tried three times, with a CAS-loop fallback (the "original
// algorithm"). Every structure in this repository drives its speculation
// through the same Begin / Next / Try / Fallback loop.
func (c *counterPair) bump() {
	r := c.site.Begin(c.domain)
	for r.Next(0) {
		if r.Try(func(tx *htm.Tx) {
			htm.Store(tx, c.a, htm.Load(tx, c.a)+1)
			htm.Store(tx, c.b, htm.Load(tx, c.b)+1)
		}) == htm.Committed {
			return
		}
	}
	r.Fallback()
	for {
		av := htm.Load(nil, c.a)
		if htm.CAS(nil, c.a, av, av+1) {
			break
		}
	}
	for {
		bv := htm.Load(nil, c.b)
		if htm.CAS(nil, c.b, bv, bv+1) {
			break
		}
	}
}

func main() {
	fmt.Println("== The PTO pattern ==")
	reg := telemetry.NewRegistry()
	c := newCounterPair(reg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.bump()
			}
		}()
	}
	wg.Wait()
	s := reg.Site("quickstart/bump").Snapshot()
	fmt.Printf("counters: a=%d b=%d (want 20000 each)\n",
		htm.Load(nil, c.a), htm.Load(nil, c.b))
	fmt.Printf("speculative commits=%d fallbacks=%d aborted attempts=%d\n\n",
		s.Commits, s.Fallbacks, s.Attempts-s.Commits)

	fmt.Println("== PTO-accelerated binary search tree (Ellen et al.) ==")
	// The composed variant: whole-operation transactions (2 attempts), then
	// update-phase transactions (16 attempts), then the original lock-free
	// protocol — the paper's §4.4 tuning.
	treg := telemetry.NewRegistry()
	t := bst.NewPTO12().WithPolicy(speculate.Fixed(0).WithMetrics(treg))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := int64(0); k < 2000; k++ {
				t.Insert(k*4 + int64(w))
			}
			for k := int64(0); k < 2000; k += 2 {
				t.Remove(k*4 + int64(w))
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("tree size: %d (want %d)\n", t.Len(), 4*1000)
	fmt.Printf("contains(44)=%v (kept), contains(40)=%v (removed)\n", t.Contains(44), t.Contains(40))
	var pto1, pto2, fallbacks, aborts uint64
	for _, s := range treg.Snapshot().Sites {
		switch s.Level {
		case "pto1":
			pto1 += s.Commits
		case "pto2":
			pto2 += s.Commits
		}
		fallbacks += s.Fallbacks
		aborts += s.Attempts - s.Commits
	}
	fmt.Printf("PTO1 commits=%d PTO2 commits=%d fallbacks=%d aborts=%d\n",
		pto1, pto2, fallbacks, aborts)
	fmt.Println("\nNext: run `go run ./cmd/ptobench -figure 2a` to regenerate")
	fmt.Println("the paper's figures on the simulated 4-core/8-thread machine.")
}
