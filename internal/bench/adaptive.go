package bench

import (
	"repro/internal/bst"
	"repro/internal/speculate"
)

// AblationAdaptivePolicy (A6) compares the static fixed-budget speculation
// policy against the adaptive runtime (backoff, fail-fast, glibc-style
// commit-ratio disable) on the real-concurrency BST, measured in wall-clock
// time (wallRun) rather than on the simulated machine.
//
// Under ample HTM capacity the two policies should be indistinguishable:
// speculation almost always commits, so the adaptive machinery never
// triggers. Under crushed capacity (SetCapacity(1,1)) every transaction
// aborts deterministically; the fixed policy burns its full attempt budget
// on every operation while the adaptive policy notices the commit ratio
// collapse and routes operations straight to the nonblocking fallback,
// which is the paper's §7 graceful-degradation claim restated as a policy
// property.
func AblationAdaptivePolicy(scale float64) Figure {
	opsPer := int(20000 * scale)
	if opsPer < 1000 {
		opsPer = 1000
	}
	f := Figure{
		ID:     "Ablation A6",
		Title:  "Static vs adaptive speculation policy (real BST, wall clock)",
		YLabel: "ops/ms",
	}
	configs := []struct {
		name    string
		pol     speculate.Policy
		crushed bool
	}{
		{"Fixed, ample capacity", speculate.Fixed(0), false},
		{"Adaptive, ample capacity", speculate.Adaptive(), false},
		{"Fixed, capacity crushed", speculate.Fixed(0), true},
		{"Adaptive, capacity crushed", speculate.Adaptive(), true},
	}
	for _, c := range configs {
		s := Series{Name: c.name}
		for _, threads := range []int{2, 4, 8} {
			tput := measureRealBST(threads, opsPer, c.pol, c.crushed)
			s.Points = append(s.Points, Point{Threads: threads, Throughput: tput})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// measureRealBST runs a mixed insert/remove/contains workload over the real
// PTO BST and returns wall-clock throughput in ops/ms.
func measureRealBST(threads, opsPer int, pol speculate.Policy, crushed bool) float64 {
	t := bst.NewPTO12().WithPolicy(pol)
	if crushed {
		t.Domain().SetCapacity(1, 1)
	}
	const keyRange = 512
	for i := 0; i < keyRange/2; i++ {
		t.Insert(int64(splitmixRand(uint64(i)) % keyRange))
	}
	w := &wallRun{threads: threads, ops: opsPer}
	return w.run(func(_ int, rnd uint64) int64 {
		k := int64(rnd % keyRange)
		switch rnd >> 60 % 3 {
		case 0:
			t.Insert(k)
		case 1:
			t.Remove(k)
		default:
			t.Contains(k)
		}
		return 1
	})
}
