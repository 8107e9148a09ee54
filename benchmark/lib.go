package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bst"
	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/mound"
	"repro/internal/msqueue"
	"repro/internal/semtx"
	"repro/internal/skiplist"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// ptoSet is a PTO structure usable both directly and inside composed
// operations.
type ptoSet interface {
	txn.Set
	Contains(int64) bool
	Insert(int64) bool
	Remove(int64) bool
	Len() int
}

// libSystem is lib-compose's system under test: one htm domain holding a
// server shard's structure set plus a BST index, with per-client queues and
// PQs so each client can model its own.
type libSystem struct {
	d      *htm.Domain
	reg    *telemetry.Registry
	m      *txn.Manager
	sem    *semtx.Manager[*txn.Ctx, int64]
	sets   [numSets]ptoSet
	queues [clients][2]*msqueue.PTOQueue // ingress, egress
	pqs    [clients]*mound.Mound
	qName  [clients]string
	pqName [clients]string
	keybuf [clients][]int64
}

func newLibSystem(fallback bool) *libSystem {
	ls := &libSystem{d: htm.NewDomainStripes(0, 0, 0), reg: telemetry.NewRegistry()}
	if fallback {
		// No transactional capacity: every prefix transaction aborts, so the
		// structures run their original lock-free code and every composed
		// operation publishes by MultiCAS.
		ls.d.SetCapacity(-1, -1)
	}
	d := ls.d
	ls.m = txn.NewIn(d, 0).WithPolicyAt(speculate.Fixed(0).WithMetrics(ls.reg), "lib/txn")
	ls.sets = [numSets]ptoSet{hashtable.NewPTOTableIn(d, 64, 0), skiplist.NewPTOSetIn(d, 0), bst.NewPTOIn(d, -1, -1)}
	r := ls.m.Structures()
	for i, s := range ls.sets {
		r.AddSet(setNames[i], s)
	}
	for c := 0; c < clients; c++ {
		ls.qName[c], ls.pqName[c] = fmt.Sprintf("ingress%d", c), fmt.Sprintf("sched%d", c)
		ls.queues[c] = [2]*msqueue.PTOQueue{msqueue.NewPTOIn(d, 0), msqueue.NewPTOIn(d, 0)}
		ls.pqs[c] = mound.NewPTOIn(d, 12, 0)
		r.AddQueue(ls.qName[c], ls.queues[c][0])
		r.AddQueue(fmt.Sprintf("egress%d", c), ls.queues[c][1])
		r.AddPQ(ls.pqName[c], ls.pqs[c])
	}
	ls.sem = semtx.New(ls.m, r).WithTelemetry(ls.reg.Open("lib/txn"))
	return ls
}

// libSpan names the span a sampled library call is recorded under.
func libSpan(r *request) string {
	switch {
	case r.via == viaDirect:
		return "lib.direct"
	case r.kind == kGet:
		return "lib.readonly"
	case r.kind == kPut || r.kind == kDel:
		return "lib.atomic"
	case r.kind == kMove:
		return "lib.move"
	case r.kind == kMoveAll:
		return "lib.moveall"
	case r.kind == kTxn:
		return "lib.semtx"
	}
	return "lib.queue-pq"
}

func (ls *libSystem) exec(c int, r *request, out *reply) {
	*out = reply{status: 200}
	m := ls.m
	switch r.kind {
	case kGet:
		s, key := ls.sets[r.set], keyOf(c, r.idx)
		if r.via == viaDirect {
			out.found = s.Contains(key)
		} else {
			m.ReadOnly(func(x *txn.Ctx) { out.found = s.TxContains(x, key) })
		}
	case kPut:
		s, key := ls.sets[r.set], keyOf(c, r.idx)
		if r.via == viaDirect {
			out.changed = s.Insert(key)
		} else {
			m.Atomic(func(x *txn.Ctx) { out.changed = s.TxInsert(x, key) })
		}
	case kDel:
		s, key := ls.sets[r.set], keyOf(c, r.idx)
		if r.via == viaDirect {
			out.changed = s.Remove(key)
		} else {
			m.Atomic(func(x *txn.Ctx) { out.changed = s.TxRemove(x, key) })
		}
	case kMove:
		if txn.Move(m, ls.sets[r.set], ls.sets[r.dst], keyOf(c, r.idx)) {
			out.moved = 1
		}
	case kMoveAll:
		keys := ls.keybuf[c][:0]
		for _, k := range r.idxs {
			keys = append(keys, keyOf(c, k))
		}
		ls.keybuf[c] = keys
		out.moved = txn.MoveAll(m, ls.sets[r.set], ls.sets[r.dst], keys...)
	case kTxn:
		if _, err := ls.sem.Run(func(tx *semtx.Tx[*txn.Ctx, int64]) error {
			runBody(tx, c, r, out, ls.qName[c], ls.pqName[c])
			return nil
		}); err != nil {
			out.status = -1
		}
	case kEnqueue:
		q := ls.queues[c][r.slot]
		m.Atomic(func(x *txn.Ctx) { q.TxEnqueue(x, r.val) })
	case kDequeue:
		q := ls.queues[c][r.slot]
		m.Atomic(func(x *txn.Ctx) { out.value, out.found = q.TxDequeue(x) })
	case kPush:
		m.Atomic(func(x *txn.Ctx) { ls.pqs[c].TxPush(x, r.val) })
	case kPopMin:
		m.Atomic(func(x *txn.Ctx) { out.value, out.found = ls.pqs[c].TxPopMin(x) })
	case kTransfer:
		out.moved = txn.Transfer(m, ls.queues[c][r.slot], ls.queues[c][1-r.slot], int(r.val))
	case kMoveMin:
		out.value, out.found = txn.MoveMin(m, ls.pqs[c], ls.sets[r.dst])
		if out.found {
			out.moved = 1
		}
	case kMoveToPQ:
		if txn.MoveToPQ(m, ls.sets[r.set], ls.pqs[c], keyOf(c, r.idx)) {
			out.moved = 1
		}
	default:
		panic("lib-compose does not generate " + kindNames[r.kind])
	}
}

func (ls *libSystem) snap(s *counterSnap) {
	s.tel = ls.reg.Snapshot()
	s.dom, s.remaps, s.hasDom = ls.d.Stats(), ls.d.Remaps(), true
}

// libRun is one system instance with its two clients' state.
type libRun struct {
	ls     *libSystem
	models [clients]*model
	gens   [clients]*generator
	tally  tally
}

func (lr *libRun) do(c int, r *request, t *tally) {
	var exp, got reply
	lr.models[c].apply(c, r, &exp)
	lr.ls.exec(c, r, &got)
	t.check(r, &exp, &got)
}

// both runs f for each client concurrently and folds the tallies.
func (lr *libRun) both(f func(c int, t *tally)) {
	var wg sync.WaitGroup
	var tallies [clients]tally
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c, &tallies[c])
		}(c)
	}
	wg.Wait()
	for c := range tallies {
		lr.tally.add(tallies[c])
	}
}

// setupLib builds the domain and structures and prefills them — the sets to
// their starting shape through the structures' own Insert, each client's
// ingress queue and PQ to queuePrefill through the manager — and times it.
func setupLib(w *world, fallback bool) (*libRun, time.Duration) {
	start := time.Now()
	lr := &libRun{ls: newLibSystem(fallback)}
	for c := 0; c < clients; c++ {
		lr.models[c] = newModel()
		g := newGenerator(w, c, lr.models[c], 2)
		g.next = g.genLib
		lr.gens[c] = g
	}
	lr.both(func(c int, t *tally) {
		g := lr.gens[c]
		var r request
		for set := uint8(0); set < numSets; set++ {
			for rank, idx := range w.perm[c] {
				if prefilled(int(set), rank) {
					r = request{kind: kPut, via: viaDirect, set: set, idx: idx}
					lr.do(c, &r, t)
				}
			}
		}
		for i := 0; i < queuePrefill; i++ {
			r = request{kind: kEnqueue, val: g.value()}
			lr.do(c, &r, t)
			r = request{kind: kPush, val: keyOf(c, g.key())}
			lr.do(c, &r, t)
		}
	})
	return lr, time.Since(start)
}

// finish checks the final state: every key's membership in every set, the
// queues and PQs drained in model order, and conservation — each structure
// holds exactly the keys the two models say, no more.
func (lr *libRun) finish() tally {
	lr.both(func(c int, t *tally) {
		var r request
		for set := uint8(0); set < numSets; set++ {
			for idx := int32(0); idx < keysPerClient; idx++ {
				r = request{kind: kGet, via: viaDirect, set: set, idx: idx}
				lr.do(c, &r, t)
			}
		}
	})
	for set, s := range lr.ls.sets {
		want := 0
		for c := 0; c < clients; c++ {
			for _, in := range lr.models[c].sets[set] {
				if in {
					want++
				}
			}
		}
		lr.tally.attempted++
		if got := s.Len(); got != want {
			lr.tally.fail(fmt.Sprintf("conservation: %s holds %d keys, models say %d", setNames[set], got, want))
		}
	}
	lr.both(func(c int, t *tally) {
		var r request
		for slot := uint8(0); slot < 2; slot++ {
			for n := len(lr.models[c].queues[slot]); n >= 0; n-- {
				r = request{kind: kDequeue, slot: slot}
				lr.do(c, &r, t)
			}
		}
		for n := lr.models[c].pqs[0].Len(); n >= 0; n-- {
			r = request{kind: kPopMin}
			lr.do(c, &r, t)
		}
	})
	return lr.tally
}

// libLatencyEvery: a library call is a few hundred ns and a clock read a few
// tens, so one call in sixteen is timed (and, traced, given a span).
const libLatencyEvery = 16

func (lr *libRun) load(spec loadSpec) phaseResult {
	spec.every = libLatencyEvery
	return runClients(spec, lr.ls.snap, func(c int, sp *spanner) clientStep {
		g, m := lr.gens[c], lr.models[c]
		var r request
		var exp, got reply
		var n int64
		return func(t *tally) int {
			g.next(&r)
			m.apply(c, &r, &exp)
			if n++; sp != nil && n%libLatencyEvery == 1 {
				s := sp.begin(libSpan(&r), -1, n)
				lr.ls.exec(c, &r, &got)
				sp.end(s)
			} else {
				lr.ls.exec(c, &r, &got)
			}
			t.check(&r, &exp, &got)
			return r.keys()
		}
	})
}

// runLib measures lib-compose: phase A on a default-capacity domain (prefix
// transactions available), phase B the same stream on a second domain with
// no transactional capacity, in turns. ops_per_s and the latencies are phase
// A's; pto_speedup is A ÷ B.
func runLib(rc runConfig) (*result, error) {
	w := newWorld(rc.seed)
	if rc.trace {
		return traceLib(rc, w)
	}
	res := newResult("lib-compose", rc)
	var setups []float64
	setup := func(fallback bool) *libRun {
		var lr *libRun
		setups = append(setups, onRefClock(func() (d time.Duration) {
			lr, d = setupLib(w, fallback)
			return d
		}))
		return lr
	}
	for i := 0; i < rc.extraSetups; i++ {
		res.tally.add(setup(false).tally)
	}
	runs := [2]*libRun{setup(false), setup(true)}
	phases := alternate(rc, [2]float64{0.5, 0.5}, func(i int, spec loadSpec) phaseResult {
		return runs[i].load(spec)
	})
	for i, lr := range runs {
		res.tally.add(phases[i].tally)
		res.tally.add(lr.finish())
	}
	res.setE2E(setups, phases[0], phases[1])
	return res, nil
}
