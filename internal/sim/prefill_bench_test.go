package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simds"
)

// hashHalf is Figure 4's prefill: 32K keys of a 64K range.
const hashHalf = 1 << 15

func hashKey(i uint64) uint64 { return ((i*0x9E3779B1+7)&(hashHalf-1))*2 + 1 }

// BenchmarkHashPrefill32K is set-up mode end to end, the layer under the
// benchmark's setup_s: a copy-on-write PTO hash table filled on the set-up
// thread the way Figure 4 fills each table kind's image once per sweep, 32K
// keys of a 64K range into 64 initial buckets, each insert one setup-mode
// transaction. ns/op is per key, a fresh machine and table every 32K keys
// included.
func BenchmarkHashPrefill32K(b *testing.B) {
	var setup *sim.Thread
	var h *simds.SimHash
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%hashHalf == 0 {
			setup = sim.New(sim.DefaultConfig(8)).Thread(0)
			h = simds.NewSimHash(setup, simds.HashPTO, 64, 8)
		}
		h.Insert(setup, hashKey(uint64(i)))
	}
}

// BenchmarkCloneHashImage is what a Figure 4 point pays instead of that
// prefill: an 8-thread clone of a prefilled 32K-key PTO table (sim.Machine.
// Clone reusing the previous clone's buffers, as the sweep does, and
// simds.SimHash.Clone) and the first touch of the pages a point uses. 1024
// set-up-mode lookups of random keys touch 60 of the image's 417 pages, the
// count a point at scale 0.05 copies. ns/op is per clone.
func BenchmarkCloneHashImage(b *testing.B) {
	img := sim.New(sim.DefaultConfig(1))
	setup := img.Thread(0)
	h := simds.NewSimHash(setup, simds.HashPTO, 64, 1)
	for i := uint64(0); i < hashHalf; i++ {
		h.Insert(setup, hashKey(i))
	}
	h.Stabilize(setup)
	var m *sim.Machine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = img.Clone(sim.DefaultConfig(8), m)
		c, t := h.Clone(8), m.Thread(0)
		for j := 0; j < 1024; j++ {
			c.Contains(t, t.Rand()%(2*hashHalf)+1)
		}
	}
}
