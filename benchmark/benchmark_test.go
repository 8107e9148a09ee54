package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// The ladder stops at the highest percentile with ten samples beyond it.
	if got := ladder(1000); len(got) != 4 || got[3] != 99 {
		t.Errorf("ladder(1000) = %v, want up to p99", got)
	}
	if got := ladder(5); len(got) != 0 {
		t.Errorf("ladder(5) = %v, want none", got)
	}
}

// window is one client's share of a window: ops in work seconds, and
// calibration units in cal seconds, lost seconds of which the loop did not
// run in.
func window(ops int, work float64, units int, cal, lost float64) winAcc {
	return winAcc{ops: ops, keys: 2 * ops, nlat: 1, calAcc: calAcc{units: units,
		work: time.Duration(work * 1e9), cal: time.Duration(cal * 1e9), lost: time.Duration(lost * 1e9)}}
}

func TestReduceScalesEachWindowByItsOwnSpeed(t *testing.T) {
	half, full := int(refUnitsPerSec*0.02/2), int(refUnitsPerSec*0.02)
	// Three windows at host speeds 0.5, 0.5 and 1. The slow ones lost half
	// their time in slices: they complete half the work, their tail is twice
	// as long, and their median is the full-speed one. The fourth window has
	// no calibration on one client and is left out.
	slow, fast := window(50, 0.08, half, 0.02, 0.01), window(100, 0.08, full, 0.02, 0)
	a := &clientLoop{wins: []winAcc{slow, slow, fast, window(7, 0.08, 0, 0, 0)}, lat: []float64{2, 2, 1, 9}}
	b := &clientLoop{wins: []winAcc{slow, slow, fast, fast}, lat: []float64{2, 2, 1, 9}}
	var pr phaseResult
	pr.reduce([clients]*clientLoop{a, b})
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
	// Rates and the tail scale by the speed work got done at, the median by
	// the speed the loop ran at while it ran.
	if pr.windows != 3 || !near(pr.opsRate, 2500) || !near(pr.keysRate, 5000) || !near(pr.p50, 2) || !near(pr.p99, 1) {
		t.Errorf("windows %d, ops %v/s, keys %v/s, p50 %v, p99 %v; want 3, 2500, 5000, 2, 1",
			pr.windows, pr.opsRate, pr.keysRate, pr.p50, pr.p99)
	}
	if pr.ops != 507 || len(pr.lat) != 8 || pr.lat[7] != 9 {
		t.Errorf("totals: %d ops, latencies %v", pr.ops, pr.lat)
	}

	// A later run of the same clients adds its windows; the medians follow.
	c := &clientLoop{wins: []winAcc{fast, fast}, lat: []float64{1, 1}}
	var more phaseResult
	more.reduce([clients]*clientLoop{c, c})
	pr.add(&more)
	if pr.windows != 5 || pr.ops != 907 || !near(pr.p50, 1) || !near(pr.speed, 9*0.02/0.22) {
		t.Errorf("after add: windows %d, ops %d, p50 %v, speed %v; want 5, 907, 1, 0.818", pr.windows, pr.ops, pr.p50, pr.speed)
	}
}

func TestAlternateTakesTurns(t *testing.T) {
	var order []int
	var warm, measure []time.Duration
	phases := alternate(runConfig{seconds: 20}, [2]float64{0.6, 0.4}, func(i int, spec loadSpec) phaseResult {
		order = append(order, i)
		warm, measure = append(warm, spec.warm), append(measure, spec.measure)
		pr := phaseResult{ops: 1}
		pr.win.rates = []float64{float64(i + 1)}
		return pr
	})
	if len(order) != 2*phaseRounds || phases[0].ops != phaseRounds || phases[1].windows != phaseRounds || phases[1].opsRate != 2 {
		t.Fatalf("%d loads, phases %+v", len(order), phases)
	}
	for n, i := range order {
		wantWarm := time.Duration(0)
		if n < 2 {
			wantWarm = 2 * time.Second
		}
		if i != n%2 || warm[n] != wantWarm || measure[n] != []time.Duration{1200 * time.Millisecond, 800 * time.Millisecond}[i] {
			t.Errorf("load %d: system %d, warm %v, measure %v", n, i, warm[n], measure[n])
		}
	}
	// A smoke run is too short for ten slices of a statistics window each.
	n := 0
	alternate(runConfig{seconds: 1}, [2]float64{0.5, 0.5}, func(int, loadSpec) phaseResult { n++; return phaseResult{} })
	if n != 2*5 {
		t.Errorf("a 1 s run made %d loads, want 10", n)
	}
}

func TestSideCalibratorKeepsAReferenceClock(t *testing.T) {
	cal := startSideCalibrator()
	r0, t0 := cal.now(), time.Now()
	for time.Since(t0) < 5*calibPeriod {
		runtime.Gosched()
	}
	r1, host := cal.now(), time.Since(t0).Seconds()
	slices := cal.close()
	// The clock moved forward, at a speed a real host can have, and the
	// calibrator sampled the speed while the work ran.
	if speed := (r1 - r0) / host; !(speed > 0.01 && speed < 100) || slices < 2 {
		t.Errorf("reference clock ran at %v of the host's over %v s, %d slices", speed, host, slices)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0 (an error to the caller)", got)
	}
}

func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	// request [0,100) ── encode [5,15)
	//                 ├─ transport [20,80) ── kernel [30,50)
	//                 └─ decode [85,95)
	spans := []span{
		{Name: "request", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "encode", ID: 1, Parent: 0, Start: 5, End: 15},
		{Name: "transport", ID: 2, Parent: 0, Start: 20, End: 80},
		{Name: "kernel", ID: 3, Parent: 2, Start: 30, End: 50},
		{Name: "decode", ID: 4, Parent: 0, Start: 85, End: 95},
	}
	got := selfTimes(spans)
	want := map[string]selfStat{
		"request":   {1, 100, 20}, // 100 − (10 + 60 + 10)
		"encode":    {1, 10, 10},
		"transport": {1, 60, 40}, // 60 − 20
		"kernel":    {1, 20, 20},
		"decode":    {1, 10, 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
	var self int64
	for _, st := range got {
		self += st.SelfNs
	}
	if self != 100 {
		t.Errorf("self times sum to %d, want the root's 100", self)
	}
	merged := mergeSelf(got, got)
	if merged["transport"] != (selfStat{2, 120, 80}) {
		t.Errorf("merged transport = %+v", merged["transport"])
	}
	if m := meanNs(merged, "transport"); m != 60 {
		t.Errorf("mean transport = %v, want 60", m)
	}
}

func TestSpannerRecordsOnlyWhenEnabled(t *testing.T) {
	var off *spanner
	off.end(off.begin("x", -1, 0)) // the untraced path: nil is a no-op
	sp := newSpanner(0)
	sp.end(sp.begin("warm-up", -1, 0))
	sp.enable()
	id := sp.begin("request", -1, 1)
	sp.end(sp.begin("child", id, 1))
	sp.end(id)
	if len(sp.spans) != 2 || sp.spans[1].Parent != id || sp.spans[0].End < sp.spans[1].End {
		t.Errorf("spans = %+v", sp.spans)
	}
}

// testGenerator builds a client-0 generator of one workload's stream.
// streamHash folds the first n requests of a generator into one number: the
// determinism tests' fingerprint of a request stream.
func streamHash(g *generator, n int) uint64 {
	h := fnv.New64a()
	var r request
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	var exp reply
	for i := 0; i < n; i++ {
		g.next(&r)
		put(uint64(r.kind)<<32 | uint64(r.via)<<24 | uint64(r.set)<<16 | uint64(r.dst)<<8 | uint64(r.slot))
		put(uint64(r.idx))
		put(uint64(r.val))
		for _, k := range r.idxs {
			put(uint64(k))
		}
		for _, op := range r.body[:r.nbody] {
			put(uint64(op.kind)<<40 | uint64(op.set)<<32 | uint64(uint32(op.idx)))
			put(uint64(op.val))
		}
		g.m.apply(g.c, &r, &exp) // the stream consults model sizes
	}
	return h.Sum64()
}

func testGenerator(seed uint64, gen func(*generator, *request)) *generator {
	w := newWorld(seed)
	g := newGenerator(w, 0, newModel(), 1)
	for idx := int32(0); idx < keysPerClient; idx++ {
		g.home[idx%2] = append(g.home[idx%2], idx)
	}
	g.next = func(r *request) { gen(g, r) }
	return g
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for name, gen := range map[string]func(*generator, *request){
		"serve-point":    (*generator).genPoint,
		"serve-envelope": (*generator).genEnvelope,
		"lib-compose":    (*generator).genLib,
	} {
		a := streamHash(testGenerator(1, gen), 2000)
		if b := streamHash(testGenerator(1, gen), 2000); a != b {
			t.Errorf("%s: same seed gave stream hashes %x and %x", name, a, b)
		}
		if c := streamHash(testGenerator(2, gen), 2000); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream hash %x", name, a)
		}
	}
}

func TestGeneratorMixes(t *testing.T) {
	g := testGenerator(3, (*generator).genEnvelope)
	var r request
	var exp reply
	counts := make(map[opKind]int)
	const n = 20000
	for i := 0; i < n; i++ {
		g.next(&r)
		g.m.apply(0, &r, &exp)
		counts[r.kind]++
		if r.kind != kTxn && len(r.idxs) != envelopeKeys {
			t.Fatalf("%s carries %d keys, want %d", kindNames[r.kind], len(r.idxs), envelopeKeys)
		}
	}
	for kind, want := range map[opKind]float64{kPutN: 0.4, kDelN: 0.2, kMoveAll: 0.2, kTxn: 0.2} {
		if got := float64(counts[kind]) / n; math.Abs(got-want) > 0.02 {
			t.Errorf("share of %s = %.3f, want %.2f", kindNames[kind], got, want)
		}
	}
	if l := g.m.pqs[0].Len() + g.m.pqs[1].Len(); l > 4*queuePrefill {
		t.Errorf("PQs grew to %d under the txn bodies", l)
	}
}

func TestOracleCatchesAWrongReply(t *testing.T) {
	m := newModel()
	var tl tally
	var exp reply
	put := request{kind: kPut, set: setHot, idx: 7}
	m.apply(0, &put, &exp)
	tl.check(&put, &exp, &reply{status: 200, changed: true})
	get := request{kind: kGet, set: setHot, idx: 7}
	m.apply(0, &get, &exp)
	tl.check(&get, &exp, &reply{status: 200, found: true})
	if tl.failed != 0 {
		t.Fatalf("correct replies counted as failures: %v", tl.examples)
	}
	// Injected faults: a lost write, a shed request, a wrong popped value.
	tl.check(&get, &exp, &reply{status: 200, found: false})
	tl.check(&get, &exp, &reply{status: 429, found: true})
	body := request{kind: kTxn, nbody: 2}
	body.body[0] = txnOp{kind: kPush, val: 40}
	body.body[1] = txnOp{kind: kPopMin}
	m.apply(0, &body, &exp)
	wrong := exp
	wrong.res[1].value = 41
	tl.check(&body, &exp, &wrong)
	if tl.failed != 3 || tl.attempted != 5 {
		t.Errorf("failed %d of %d, want 3 of 5: %v", tl.failed, tl.attempted, tl.examples)
	}
}

func TestModelComposedOps(t *testing.T) {
	m := newModel()
	var exp reply
	do := func(r request) reply { m.apply(1, &r, &exp); return exp }
	do(request{kind: kPut, set: setHot, idx: 3})
	if r := do(request{kind: kMove, set: setHot, dst: setCold, idx: 3}); r.moved != 1 {
		t.Errorf("move of a present key: %+v", r)
	}
	if r := do(request{kind: kMove, set: setHot, dst: setCold, idx: 3}); r.moved != 0 {
		t.Errorf("second move: %+v", r)
	}
	if r := do(request{kind: kMoveToPQ, set: setCold, idx: 3}); r.moved != 1 {
		t.Errorf("movetopq: %+v", r)
	}
	do(request{kind: kPut, set: setIndex, idx: 3})
	// The PQ's minimum is key 3, which the index already holds: the pop is undone.
	if r := do(request{kind: kMoveMin, dst: setIndex}); r.moved != 0 || r.value != keyOf(1, 3) || m.pqs[0].Len() != 1 {
		t.Errorf("movemin into a set holding the value: %+v, pq %d", r, m.pqs[0].Len())
	}
	if r := do(request{kind: kMoveMin, dst: setHot}); r.moved != 1 || !m.sets[setHot][3] || m.pqs[0].Len() != 0 {
		t.Errorf("movemin: %+v", r)
	}
	do(request{kind: kEnqueue, val: 5})
	do(request{kind: kEnqueue, val: 6})
	if r := do(request{kind: kTransfer, val: 3}); r.moved != 2 || len(m.queues[1]) != 2 {
		t.Errorf("transfer: %+v", r)
	}
}

func TestEncodedRequestsAreTheServersEnvelopes(t *testing.T) {
	r := request{kind: kMoveAll, set: setCold, dst: setHot, idxs: []int32{0, 5}}
	path, body := encodeRequest(nil, 1, &r)
	var env server.Request
	if err := json.Unmarshal(body, &env); err != nil || path != "/v1/op" {
		t.Fatalf("%s %s: %v", path, body, err)
	}
	if env.Op != server.OpMoveAll || env.Src != "cold" || env.Dst != "hot" || len(env.Keys) != 2 || env.Keys[1] != keyOf(1, 5) {
		t.Errorf("decoded %+v from %s", env, body)
	}

	r = request{kind: kTxn, slot: 1, nbody: 3}
	r.body[0] = txnOp{kind: kDel, set: setCold, idx: 2}
	r.body[1] = txnOp{kind: kEnqueue, val: 9}
	r.body[2] = txnOp{kind: kPopMin}
	path, body = encodeRequest(body, 0, &r)
	var tx server.TxnRequest
	if err := json.Unmarshal(body, &tx); err != nil || path != "/v1/txn" {
		t.Fatalf("%s %s: %v", path, body, err)
	}
	if tx.Shard == nil || *tx.Shard != 2 || len(tx.Ops) != 3 || tx.Ops[0].Op != server.OpDel ||
		tx.Ops[0].Struct != "cold" || tx.Ops[0].Key != keyOf(0, 2) || tx.Ops[1].Value != 9 || tx.Ops[2].Op != server.OpPopMin {
		t.Errorf("decoded %+v from %s", tx, body)
	}
}

// The oracle against the real systems, briefly: every level of the peel and
// the library run a few hundred operations with zero disagreements, sweep
// included.
func TestPeelLevelsAgreeWithTheOracle(t *testing.T) {
	w := newWorld(5)
	gen := (*generator).genEnvelope
	counts := [clients]unitCount{{20, 150}, {20, 150}}
	sr, _, err := setupServe(w, gen, func() (backend, error) { return newHandlerBackend(false), nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr := sr.load(loadSpec{replay: &counts, traced: true})
	total := sr.finish()
	total.add(pr.tally)
	shardOf := sr.shardOf

	sr, _, err = setupServe(w, gen, func() (backend, error) { return newDirectBackend(true, &shardOf), nil }, &shardOf)
	if err != nil {
		t.Fatal(err)
	}
	pr2 := sr.load(loadSpec{replay: &counts})
	total.add(pr2.tally)
	total.add(sr.finish())
	if total.failed != 0 || total.attempted < 2*(150+keysPerClient) {
		t.Errorf("failed %d of %d: %v", total.failed, total.attempted, total.examples)
	}
	if pr.ops != 300 || pr2.keys != pr.keys {
		t.Errorf("replays ran %d ops / %d keys and %d keys, want 300 ops and equal keys", pr.ops, pr.keys, pr2.keys)
	}
	agg := newTraceSec(pr.spans[0], pr.spans[1]).Aggregate
	if agg["request"].Count != 300 || agg["server.handler"].Count != 300 || agg["request"].SelfNs <= 0 {
		t.Errorf("trace aggregate %+v", agg)
	}
}

func TestLibraryAgreesWithTheOracle(t *testing.T) {
	w := newWorld(6)
	counts := [clients]unitCount{{50, 1500}, {50, 1500}}
	for _, fallback := range []bool{false, true} {
		lr, _ := setupLib(w, fallback)
		pr := lr.load(loadSpec{replay: &counts})
		total := lr.finish()
		total.add(pr.tally)
		if total.failed != 0 || pr.ops != 3000 {
			t.Errorf("fallback=%v: failed %d of %d after %d ops: %v", fallback, total.failed, total.attempted, pr.ops, total.examples)
		}
	}
}

func TestModeledFoldsSeriesPairs(t *testing.T) {
	var fs, again figureSet
	fs.add(smokeFigures, generateRound(smokeFigures, 0.001, nil))
	if fs.tally.failed != 0 || fs.tally.attempted == 0 {
		t.Fatalf("figure generation: %+v", fs.tally)
	}
	speedup, level, pairs, levels := modeled(fs.figs)
	// Figure 2(a) has one (Lockfree, PTO) pair over 8 thread counts; A8 adds
	// its modeled fast path's 3 points to the PTO level.
	if pairs != 8 || levels != 8+3 || speedup <= 0 || level <= 0 {
		t.Errorf("modeled = %v, %v over %d pairs, %d levels", speedup, level, pairs, levels)
	}
	if again.add(smokeFigures, generateRound(smokeFigures[:1], 0.001, nil)); !sameFigure(fs.figs[0], again.figs[0]) {
		t.Error("Figure 2(a) did not repeat bit for bit")
	}
}

// BENCHMARK.json is generated from the metric tables (bash
// benchmark/run.sh -manifest); this keeps the committed file equal to them and inside the
// driver's limits.
func TestManifestIsCommittedAndWithinLimits(t *testing.T) {
	want := manifest()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(want))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
	}
}
