package bench

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simds"
)

// TestHashImageSameAtEveryThreadCount checks the premise of Figure 4's
// clones (sweepImage) for each table kind. The prefilled image (every word,
// every directory entry, the allocation frontier) is the same for 1..8
// threads. A point run from a clone of a one-thread image ends exactly as a
// point run on a freshly filled machine does: same throughput, memory and
// stats, at 1 and 8 threads.
func TestHashImageSameAtEveryThreadCount(t *testing.T) {
	const keyRange, lookupPct, window = 1 << 16, 50, 50_000
	for name, kind := range map[string]simds.HashKind{"LF": simds.HashLF, "PTO": simds.HashPTO, "Inplace": simds.HashInplace} {
		fresh := func(threads int) (*sim.Machine, func(*sim.Thread)) {
			m := sim.New(sim.DefaultConfig(threads))
			setup := m.Thread(0)
			h := simds.NewSimHash(setup, kind, 64, threads)
			prefillSet(setup, keyRange, h.Insert)
			h.Stabilize(setup)
			return m, setOp(lookupPct, keyRange, h.Insert, h.Remove, h.Contains)
		}
		t.Run(name, func(t *testing.T) {
			m1, _ := fresh(1)
			want := m1.Digest()
			for n := 2; n <= MaxThreads; n++ {
				if m, _ := fresh(n); m.Digest() != want {
					t.Fatalf("the image filled for %d threads differs from the one for 1", n)
				}
			}

			img := sim.New(sim.DefaultConfig(1))
			point := hashBuild(kind, lookupPct, keyRange)(img.Thread(0))
			for _, n := range []int{1, MaxThreads} {
				mf, opf := fresh(n)
				tf := measureOn(mf, window, opf)
				mc := img.Clone(sim.DefaultConfig(n), nil)
				tc := measureOn(mc, window, point(n))
				if tc != tf || mc.Digest() != mf.Digest() || mc.Stats() != mf.Stats() {
					t.Fatalf("%d threads: the clone's point reads %.1f ops/ms with stats %+v, a fresh fill's %.1f with %+v (memory equal: %v)",
						n, tc, mc.Stats(), tf, mf.Stats(), mc.Digest() == mf.Digest())
				}
			}
		})
	}
}
