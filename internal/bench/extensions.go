package bench

import (
	"repro/internal/sim"
	"repro/internal/simds"
)

// Extension experiments (E1, E2): the paper's §5 argues PTO generalizes to
// other marking- and double-check-based designs; these tables measure the
// two canonical cases this repository adds — Harris's hazard-pointer-
// protected linked list and the Michael–Scott queue.

// ExtList measures the Harris list (setbench, small range so the O(n)
// traversal stays comparable to the paper's structures), baseline vs. PTO.
// The baseline pays a hazard-pointer publication fence per traversal hop;
// the whole-operation transaction elides all reclaimer interaction.
func ExtList(lookupPct int, scale float64) Figure {
	w := scaled(windowSet, scale)
	const keyRange = 128
	mk := func(pto bool) buildFunc {
		return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
			l := simds.NewSimList(setup, pto, m.Config().Threads)
			prefillSet(setup, keyRange, l.Insert)
			return setOp(lookupPct, keyRange, l.Insert, l.Remove, l.Contains)
		}
	}
	return Figure{
		ID:     "Extension E1",
		Title:  sprintfTitle("Harris list w/ hazard pointers, lookup=%d%% range=%d", lookupPct, keyRange),
		YLabel: "ops/ms",
		Series: []Series{
			sweep("List (Lockfree+HP)", w, mk(false)),
			sweep("List (PTO)", w, mk(true)),
		},
	}
}

// ExtQueue measures the Michael–Scott queue under a 50/50 enqueue/dequeue
// mix, baseline vs. PTO.
func ExtQueue(scale float64) Figure {
	w := scaled(windowPQ, scale)
	mk := func(pto bool) buildFunc {
		return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
			q := simds.NewSimMSQueue(setup, pto)
			for i := 0; i < 256; i++ {
				q.Enqueue(setup, uint64(i))
			}
			return func(t *sim.Thread) {
				t.Work(opOverhead)
				x := t.Rand()
				if x&1 == 0 {
					q.Enqueue(t, x>>8)
				} else {
					q.Dequeue(t)
				}
			}
		}
	}
	return Figure{
		ID:     "Extension E2",
		Title:  "Michael-Scott queue, 50/50 enqueue/dequeue",
		YLabel: "ops/ms",
		Series: []Series{
			sweep("MSQueue (Lockfree)", w, mk(false)),
			sweep("MSQueue (PTO)", w, mk(true)),
		},
	}
}

// Extensions regenerates the extension tables.
func Extensions(scale float64) []Figure {
	return []Figure{ExtList(34, scale), ExtQueue(scale)}
}
