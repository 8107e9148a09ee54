package semtx

import (
	"fmt"
	"strings"
)

// Bindings returns how many structures t has resolved and kept.
func (t *Tx[C, K]) Bindings() int { return len(t.sets) + len(t.queues) + len(t.pqs) }

// Residue lists what t holds that a fresh attempt must not — "" for a Tx
// that carries nothing but capacity and bindings.
func (t *Tx[C, K]) Residue() string {
	var r []string
	if t.ops != 0 {
		r = append(r, fmt.Sprintf("ops=%d", t.ops))
	}
	if n := len(t.setOrder) + len(t.queueOrder) + len(t.pqOrder); n != 0 {
		r = append(r, fmt.Sprintf("%d structures in first-touch order", n))
	}
	for name, st := range t.sets {
		if st.touched || len(st.items) != 0 || len(st.index) != 0 {
			r = append(r, fmt.Sprintf("set %q: touched=%v items=%d indexed=%d", name, st.touched, len(st.items), len(st.index)))
		}
	}
	for name, qs := range t.queues {
		if qs.touched || qs.observed || qs.present || qs.popped || len(qs.enq) != 0 || qs.served != 0 {
			r = append(r, fmt.Sprintf("queue %q: %+v", name, *qs))
		}
	}
	for name, ps := range t.pqs {
		if ps.touched || ps.observed || ps.present || ps.popped || len(ps.buf)+len(ps.prePush)+len(ps.postPush) != 0 {
			r = append(r, fmt.Sprintf("pq %q: %+v", name, *ps))
		}
	}
	return strings.Join(r, "; ")
}
