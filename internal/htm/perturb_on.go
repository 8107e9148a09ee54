//go:build perturb

package htm

import (
	"math/rand/v2"
	"runtime"
)

// perturb marks a phase boundary of a write protocol — Tx.commit's lock /
// clock bump / validate / install+stamp / unlock, a MultiCAS's claim /
// decide / stamp / release, a direct writer between stamp and publish. Under
// the perturb build tag one crossing in sixteen, at random, yields the
// processor, so a single-CPU host explores the interleavings a preemption
// there would produce (every crossing would starve the writers behind
// busy-waiting readers: a yield can cost a scheduler time slice):
//
//	go test -tags perturb -count=20 ./internal/htm/ ./internal/txn/ ./internal/server/
func perturb() {
	if rand.Uint32()&15 == 0 {
		runtime.Gosched()
	}
}
