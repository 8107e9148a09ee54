package main

import (
	"container/heap"
	"fmt"
)

// reply is what a backend answered, reduced to the fields the oracle checks.
type reply struct {
	status  int // HTTP status; 200 for direct calls
	shard   int
	found   bool
	changed bool
	moved   int
	value   int64
	nres    int
	res     [maxBody]opResult
}

type opResult struct {
	found   bool
	changed bool
	value   int64
}

// minHeap is the model of a priority queue: a multiset with an exact min.
type minHeap []int64

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *minHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// model is one client's sequential picture of everything it owns: membership
// of each of its keys in each set, and the contents of its queues and PQs.
// Because no other client touches those, every reply is determined by the
// client's own history, however the two clients interleave underneath.
type model struct {
	sets   [numSets][]bool
	queues [2][]int64
	pqs    [2]*minHeap
}

func newModel() *model {
	m := &model{}
	for s := range m.sets {
		m.sets[s] = make([]bool, keysPerClient)
	}
	for i := range m.pqs {
		m.pqs[i] = &minHeap{}
	}
	return m
}

func (m *model) put(set uint8, idx int32) bool {
	was := m.sets[set][idx]
	m.sets[set][idx] = true
	return !was
}

func (m *model) del(set uint8, idx int32) bool {
	was := m.sets[set][idx]
	m.sets[set][idx] = false
	return was
}

func (m *model) dequeue(slot uint8) (int64, bool) {
	q := m.queues[slot]
	if len(q) == 0 {
		return 0, false
	}
	m.queues[slot] = q[1:]
	return q[0], true
}

func (m *model) popMin(slot uint8) (int64, bool) {
	if m.pqs[slot].Len() == 0 {
		return 0, false
	}
	return heap.Pop(m.pqs[slot]).(int64), true
}

// move is the model of txnops.Move: only a key present in src and absent
// from dst moves.
func (m *model) move(src, dst uint8, idx int32) bool {
	if m.sets[dst][idx] || !m.sets[src][idx] {
		return false
	}
	m.sets[src][idx], m.sets[dst][idx] = false, true
	return true
}

// apply advances the model by r and writes the reply a correct system must
// give into exp. c is the owning client (PQ values name its keys).
func (m *model) apply(c int, r *request, exp *reply) {
	*exp = reply{status: 200}
	switch r.kind {
	case kGet:
		exp.found = m.sets[r.set][r.idx]
	case kPut:
		exp.changed = m.put(r.set, r.idx)
	case kDel:
		exp.changed = m.del(r.set, r.idx)
	case kPutN:
		for _, k := range r.idxs {
			if m.put(r.set, k) {
				exp.moved++
			}
		}
		exp.changed = exp.moved > 0
	case kDelN:
		for _, k := range r.idxs {
			if m.del(r.set, k) {
				exp.moved++
			}
		}
		exp.changed = exp.moved > 0
	case kMove:
		if m.move(r.set, r.dst, r.idx) {
			exp.moved = 1
		}
	case kMoveAll:
		for _, k := range r.idxs {
			if m.move(r.set, r.dst, k) {
				exp.moved++
			}
		}
	case kTxn:
		exp.nres = r.nbody
		for i, op := range r.body[:r.nbody] {
			res := &exp.res[i]
			switch op.kind {
			case kGet:
				res.found = m.sets[op.set][op.idx]
			case kPut:
				res.changed = m.put(op.set, op.idx)
			case kDel:
				res.changed = m.del(op.set, op.idx)
			case kEnqueue:
				m.queues[r.slot] = append(m.queues[r.slot], op.val)
			case kDequeue:
				res.value, res.found = m.dequeue(r.slot)
			case kPush:
				heap.Push(m.pqs[r.slot], op.val)
			case kPopMin:
				res.value, res.found = m.popMin(r.slot)
			}
		}
	case kEnqueue:
		m.queues[r.slot] = append(m.queues[r.slot], r.val)
	case kDequeue:
		exp.value, exp.found = m.dequeue(r.slot)
	case kPush:
		heap.Push(m.pqs[r.slot], r.val)
	case kPopMin:
		exp.value, exp.found = m.popMin(r.slot)
	case kTransfer:
		for i := int64(0); i < r.val; i++ {
			v, ok := m.dequeue(r.slot)
			if !ok {
				break
			}
			m.queues[1-r.slot] = append(m.queues[1-r.slot], v)
			exp.moved++
		}
	case kMoveMin:
		v, ok := m.popMin(r.slot)
		if !ok {
			break
		}
		exp.value = v
		if m.put(r.dst, idxOf(c, v)) {
			exp.found, exp.moved = true, 1
		} else {
			heap.Push(m.pqs[r.slot], v) // dst already holds it: the pop is undone
		}
	case kMoveToPQ:
		if m.del(r.set, r.idx) {
			heap.Push(m.pqs[r.slot], keyOf(c, r.idx))
			exp.moved = 1
		}
	}
}

// disagree compares a reply with the oracle's expectation and describes the
// first difference, or returns "" when they agree. shard is not compared: it
// is routing information the client learns, not a result.
func disagree(exp, got *reply) string {
	switch {
	case got.status != exp.status:
		return fmt.Sprintf("status %d, want %d", got.status, exp.status)
	case got.found != exp.found:
		return fmt.Sprintf("found %v, want %v", got.found, exp.found)
	case got.changed != exp.changed:
		return fmt.Sprintf("changed %v, want %v", got.changed, exp.changed)
	case got.moved != exp.moved:
		return fmt.Sprintf("moved %d, want %d", got.moved, exp.moved)
	case got.value != exp.value:
		return fmt.Sprintf("value %d, want %d", got.value, exp.value)
	case got.nres != exp.nres:
		return fmt.Sprintf("%d op results, want %d", got.nres, exp.nres)
	}
	for i := 0; i < exp.nres; i++ {
		if got.res[i] != exp.res[i] {
			return fmt.Sprintf("op %d result %+v, want %+v", i, got.res[i], exp.res[i])
		}
	}
	return ""
}

// tally counts checked replies and the ones that disagreed, keeping the
// first few disagreements for the report.
type tally struct {
	attempted int
	failed    int
	examples  []string
}

func (t *tally) check(r *request, exp, got *reply) {
	t.attempted++
	if why := disagree(exp, got); why != "" {
		t.fail(fmt.Sprintf("%s: %s", kindNames[r.kind], why))
	}
}

func (t *tally) fail(why string) {
	t.failed++
	if len(t.examples) < 5 {
		t.examples = append(t.examples, why)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.examples {
		if len(t.examples) < 5 {
			t.examples = append(t.examples, e)
		}
	}
}
