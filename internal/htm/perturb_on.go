//go:build perturb

package htm

import (
	"math/rand/v2"
	"runtime"
)

// perturb marks a phase boundary of a write protocol at which a reader can
// be misled — Tx.commit's stripe locks / lock bits / clock bump / validate /
// kill+store+stamp, a MultiCAS's claim placed / value look, its lock bits /
// status flip / values moved / clock bump / stamp, a direct writer between its
// value and its stamp. Under the perturb build tag
// one crossing in sixteen, at random, yields the processor, so a single-CPU
// host explores the interleavings a preemption there would produce (every
// crossing would starve the writers behind busy-waiting readers: a yield can
// cost a scheduler time slice — which is also why there is none between a
// writer's last stamp and its stripe release: no reader waits on a stripe,
// so nothing there yields back, and such a point only slows the suite):
//
//	go test -tags perturb -count=20 ./internal/htm/ ./internal/txn/ ./internal/server/
func perturb() {
	if rand.Uint32()&15 == 0 {
		runtime.Gosched()
	}
}
