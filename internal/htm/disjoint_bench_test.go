package htm

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkDisjointVars measures the engine's disjoint-footprint scaling:
// every goroutine increments its own private Var transactionally, so no
// transaction ever conflicts with another and all commit in parallel. The
// reported conflicts/op metric is the false-abort rate, which per-Var locks
// keep at zero.
func BenchmarkDisjointVars(b *testing.B) {
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			d := NewDomain(0, 0)
			vars := make([]*Var[int], threads)
			for i := range vars {
				vars[i] = NewVar(d, 0)
			}
			before := d.Stats()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / threads
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func(v *Var[int]) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						for {
							st := d.Atomically(func(tx *Tx) {
								Store(tx, v, Load(tx, v)+1)
							})
							if st == Committed {
								break
							}
						}
					}
				}(vars[g])
			}
			wg.Wait()
			b.StopTimer()
			s := d.Stats()
			ops := float64(per * threads)
			b.ReportMetric(float64(s.Conflicts-before.Conflicts)/ops, "conflicts/op")
		})
	}
}
