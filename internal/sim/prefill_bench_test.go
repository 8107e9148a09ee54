package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simds"
)

// BenchmarkHashPrefill32K is set-up mode end to end, the layer under the
// benchmark's setup_s: a copy-on-write PTO hash table filled on the set-up
// thread the way every point of Figure 4 fills its own, 32K keys of a 64K
// range into 64 initial buckets, each insert one setup-mode transaction.
// ns/op is per key, a fresh machine and table every 32K keys included.
func BenchmarkHashPrefill32K(b *testing.B) {
	const half = 1 << 15
	var setup *sim.Thread
	var h *simds.SimHash
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%half == 0 {
			setup = sim.New(sim.DefaultConfig(8)).Thread(0)
			h = simds.NewSimHash(setup, simds.HashPTO, 64, 8)
		}
		h.Insert(setup, ((uint64(i)*0x9E3779B1+7)&(half-1))*2+1)
	}
}
