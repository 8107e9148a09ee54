package main

import (
	"os"
	"path/filepath"
)

// A traced run repeats its workload at reduced length with spans recorded
// by the benchmark's own code, reads the counters the packages export at
// both ends of the measured turns, and runs the probes. It reports the
// per-layer metrics; the end-to-end ones come only from untraced runs.

// traceShare is the share of --seconds a traced run gives its untraced
// reference system and, again, its traced one; the two take turns.
const traceShare = 0.25

// tracedRun accumulates what a traced run reports.
type tracedRun struct {
	measured
	res  *result
	rc   runConfig
	file traceFile
}

func newTracedRun(workload string, rc runConfig) *tracedRun {
	return &tracedRun{
		measured: newMeasured(), res: newResult(workload, rc), rc: rc,
		file: traceFile{Workload: workload, Seed: rc.seed, Sections: make(map[string]traceSec)},
	}
}

// window folds a traced, time-bounded window's counters in, and the tracing
// overhead against the untraced window u of the same length.
func (tr *tracedRun) window(u, t *phaseResult) {
	for name, v := range windowCounters(&t.before, &t.after, t) {
		tr.put(name, v, t.ops)
	}
	if u.opsRate > 0 {
		tr.put("trace.overhead_pct", 100*(u.opsRate-t.opsRate)/u.opsRate, u.ops+t.ops)
	}
}

// finish runs the probes, emits every per-layer metric and writes the trace
// file.
func (tr *tracedRun) finish() (*result, error) {
	p := runProbes(tr.rc.smoke)
	for name, v := range p.values {
		tr.put(name, v, p.n[name])
	}
	tr.res.setPerLayer(tr.values, tr.n)
	tr.file.Counters = tr.values
	if err := os.MkdirAll(tr.rc.outDir, 0o755); err != nil {
		return nil, err
	}
	return tr.res, writeTrace(filepath.Join(tr.rc.outDir, "trace-"+tr.res.Workload+".json"), tr.file)
}

// traceServe peels a serve workload. L0 runs over loopback HTTP on two
// servers in turns — one untraced, one traced — for the overhead; L1 (the
// handler in memory) and L2 (direct calls below the server) then replay
// exactly the requests the traced L0 issued. A level's self time is the
// difference between its call span and the next level's:
//
//	net/http  = http.transport(L0) − server.handler(L1)
//	server    = server.handler(L1) − txn.direct(L2)
//	txn-below = txn.direct(L2)
//	client    = the rest of the L0 request span (encode, decode, generate, check)
//
// each as a share of the mean L0 request span, the path a caller blocks on.
func traceServe(name string, rc runConfig, w *world, gen func(*generator, *request),
	l0 func() (backend, error)) (*result, error) {
	tr := newTracedRun(name, rc)
	finish := func(sr *serveRun, pr *phaseResult) {
		tr.res.tally.add(pr.tally)
		tr.res.tally.add(sr.finish())
	}

	var both [2]*serveRun // untraced, traced
	for i := range both {
		sr, _, err := setupServe(w, gen, l0, nil)
		if err != nil {
			return nil, err
		}
		both[i] = sr
	}
	turns := alternate(rc, [2]float64{traceShare, traceShare}, func(i int, spec loadSpec) phaseResult {
		spec.traced = i == 1
		return both[i].load(spec)
	})
	u, t0 := &turns[0], &turns[1]
	finish(both[0], u)
	finish(both[1], t0)
	tr.window(u, t0)
	tr.file.Sections["L0-http"] = newTraceSec(t0.spans[0], t0.spans[1])

	shardOf := &both[1].shardOf
	replay := func(mk func() (backend, error), shardOf *[clients][]int8) (phaseResult, error) {
		sr, _, err := setupServe(w, gen, mk, shardOf)
		if err != nil {
			return phaseResult{}, err
		}
		pr := sr.load(loadSpec{replay: &t0.counts, traced: true})
		finish(sr, &pr)
		return pr, nil
	}
	t1, err := replay(func() (backend, error) { return newHandlerBackend(false), nil }, nil)
	if err != nil {
		return nil, err
	}
	tr.file.Sections["L1-handler"] = newTraceSec(t1.spans[0], t1.spans[1])
	t2, err := replay(func() (backend, error) { return newDirectBackend(false, shardOf), nil }, shardOf)
	if err != nil {
		return nil, err
	}
	tr.file.Sections["L2-direct"] = newTraceSec(t2.spans[0], t2.spans[1])

	// Mean span durations, each level's scaled by the host's speed while that
	// level ran: the levels run one after the other and the host drifts.
	mean := func(section, name string, pr *phaseResult) float64 {
		return meanNs(tr.file.Sections[section].Aggregate, name) * pr.speed
	}
	request := mean("L0-http", "request", t0)
	transport := mean("L0-http", "http.transport", t0)
	handler := mean("L1-handler", "server.handler", &t1)
	direct := mean("L2-direct", "txn.direct", &t2)
	if request > 0 {
		for share, v := range map[string]float64{
			"trace.net_self_share":    (transport - handler) / request,
			"trace.server_self_share": (handler - direct) / request,
			"trace.txn_self_share":    direct / request,
			"trace.client_self_share": (request - transport) / request,
		} {
			tr.put(share, v, t0.ops)
		}
	}
	tr.res.info("L0_ops_per_s", t0.opsRate, "1/s", t0.ops)
	tr.res.info("L1_ops_per_s", t1.opsRate, "1/s", t1.ops)
	tr.res.info("L2_ops_per_s", t2.opsRate, "1/s", t2.ops)
	return tr.finish()
}

// traceLib traces lib-compose's fast-path phase on two systems in turns: one
// untraced, for the overhead, and one in which one call in sixteen carries a
// span named for its kind, with the domain's and the registry's counters
// read at the ends of its turns; then a short untraced fallback window for
// txn.fallback_ops_per_s.
func traceLib(rc runConfig, w *world) (*result, error) {
	tr := newTracedRun("lib-compose", rc)
	finish := func(lr *libRun, pr *phaseResult) {
		tr.res.tally.add(pr.tally)
		tr.res.tally.add(lr.finish())
	}
	var both [2]*libRun // untraced, traced
	for i := range both {
		both[i], _ = setupLib(w, false)
	}
	turns := alternate(rc, [2]float64{traceShare, traceShare}, func(i int, spec loadSpec) phaseResult {
		spec.traced = i == 1
		return both[i].load(spec)
	})
	finish(both[0], &turns[0])
	finish(both[1], &turns[1])
	tr.window(&turns[0], &turns[1])
	tr.file.Sections["fast-path"] = newTraceSec(turns[1].spans[0], turns[1].spans[1])

	lr, _ := setupLib(w, true)
	b := lr.load(loadSpec{warm: rc.warmup(), measure: rc.window(traceShare)})
	finish(lr, &b)
	tr.put("txn.fallback_ops_per_s", b.opsRate, b.ops)
	return tr.finish()
}
