//go:build perturb

package htm

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
)

// hooks holds, per crossing, the function a test armed there (at, in
// scenario_test.go).
var hooks [numCrossings]atomic.Pointer[func()]

// perturb is a crossing under the perturb build tag. A hook armed there runs
// (at) — a deterministic schedule, scenario_test.go. Otherwise one crossing in
// sixteen, at random and not a quiet one, yields the processor, so a
// single-CPU host explores the interleavings a preemption there would produce
// (every crossing would starve the writers behind busy-waiting readers: a
// yield can cost a scheduler time slice):
//
//	go test -tags perturb -count=20 ./internal/htm/ ./internal/txn/ ./internal/server/
func perturb(c crossing) {
	if f := hooks[c].Load(); f != nil && hooks[c].CompareAndSwap(f, nil) {
		(*f)()
		return
	}
	if c < quietCrossings && rand.Uint32()&15 == 0 {
		runtime.Gosched()
	}
}
