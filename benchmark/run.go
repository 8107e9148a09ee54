package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/htm"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    uint64
	seconds float64 // total measured time, split between the run's phases
	trace   bool
	smoke   bool // ~1 s of everything, shortest probes
	outDir  string

	extraSetups int // set-ups built and discarded so setup_s is a median
}

func (rc runConfig) warmup() time.Duration {
	return time.Duration(rc.seconds / 10 * float64(time.Second))
}

func (rc runConfig) window(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples behind the value
}

// result is what one run of one workload produced.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Metrics   []metric `json:"metrics"`        // the contract's metrics for this mode
	Info      []metric `json:"info,omitempty"` // informational extras
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Examples  []string `json:"failures,omitempty"`

	tally tally
}

func newResult(workload string, rc runConfig) *result {
	return &result{Workload: workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, n})
}

func (r *result) info(name string, v float64, unit string, n int) {
	r.Info = append(r.Info, metric{name, v, unit, n})
}

// setE2E fills the end-to-end metrics of a two-phase runtime workload: a is
// the fast-path phase, b the same stream with the fast path unavailable.
// Everything timed is on the reference clock; the host's own readings go
// beside it as informational values.
func (r *result) setE2E(setups []float64, a, b phaseResult) {
	r.set("setup_s", median(setups), "s", len(setups))
	r.set("ops_per_s", a.opsRate, "1/s", a.ops)
	r.set("p50_ms", a.p50, "ms", len(a.lat))
	r.set("p99_ms", a.p99, "ms", len(a.lat))
	speedup := 0.0
	if b.opsRate > 0 {
		speedup = a.opsRate / b.opsRate
	}
	r.set("pto_speedup", speedup, "x", a.ops+b.ops)
	r.set("rss_peak_mb", rssPeakMB(), "MB", 1)

	r.info("windows", float64(a.windows), "count", a.windows)
	r.info("host_speed", a.speed, "x", a.windows)
	r.info("host_lost_share", a.lostShare, "ratio", a.windows)
	r.info("host_ops_per_s", a.rawOpsRate, "1/s", a.ops)
	r.info("p95_ms", a.p95, "ms", len(a.lat))
	r.info("keys_per_s", a.keysRate, "1/s", a.keys)
	r.info("fallback_ops_per_s", b.opsRate, "1/s", b.ops)
	r.ladder(a.lat)
}

// setupCalib is how long the host's speed is sampled on each side of a
// set-up.
const setupCalib = 25 * time.Millisecond

// onRefClock runs setup, which returns how long its work took, between two
// samples of the host's speed and returns that time in reference seconds.
func onRefClock(setup func() time.Duration) float64 {
	before := measureSpeed(setupCalib)
	d := setup()
	return d.Seconds() * (before + measureSpeed(setupCalib)) / 2
}

// ladder adds the informational percentile ladder on the host's clock (up
// to the highest percentile with at least ten samples beyond it) and the
// count of units over the 5 ms limit.
func (r *result) ladder(lat []float64) {
	for _, p := range ladder(len(lat)) {
		r.info("host_latency_p"+strconv.FormatFloat(p, 'f', -1, 64)+"_ms", percentile(lat, p), "ms", len(lat))
	}
	over := len(lat) - sort.SearchFloat64s(lat, latencyLimitMs)
	r.info("over_5ms", float64(over), "count", len(lat))
}

const latencyLimitMs = 5.0

// finish folds the oracle's tally into the result.
func (r *result) finish() {
	r.Attempted, r.Failed, r.Examples = r.tally.attempted, r.tally.failed, r.tally.examples
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// ---- the measured loop shared by the runtime workloads ----

// clientStep performs one unit of work, checks it, and returns the keys it
// touched.
type clientStep func(t *tally) int

// phaseResult is what two closed-loop clients measured, over one run or
// several added together. Rates and latencies are on the reference clock (see
// calib.go): each is the median, over the windows, of the window's own value
// scaled by the host speed measured inside that window. A shared host is slow
// in two ways: its cores execute more slowly, and they are taken away for
// whole time slices. Both cost throughput and both lengthen the tail, but the
// median request never meets a lost slice (measured here, p50 does not move
// with the slices lost), so p50 is scaled by the speed the loop ran at while
// it ran, everything else by the speed it got work done at.
type phaseResult struct {
	ops, keys         int
	opsRate, keysRate float64   // per reference second
	p50, p95, p99     float64   // reference ms
	windows           int       // windows behind the medians
	rawOpsRate        float64   // per host second of work, unscaled
	speed             float64   // host speed over the whole run; the reference host is 1
	lostShare         float64   // share of the calibration time lost in slices the loop did not run in
	lat               []float64 // host ms, ascending: the informational ladder
	tally             tally
	spans             [clients][]span
	before, after     counterSnap // traced, time-bounded runs only: the system's counters at both ends
	mem               memDelta    // ... and what the process allocated meanwhile
	counts            [clients]unitCount

	win struct{ rates, keyRates, p50s, p95s, p99s []float64 } // one value per window
	cal calAcc
}

// Each client alternates workSlice of work with calibSlice of the
// calibration loop, both clients on one schedule, so the host's speed is
// sampled within milliseconds of the work it scales. A window is the unit
// the statistics are taken over.
const (
	calibPeriod = 10 * time.Millisecond
	calibSlice  = 2 * time.Millisecond
	workSlice   = calibPeriod - calibSlice
	statWindow  = 100 * time.Millisecond
)

// loadSpec says how long two closed-loop clients run. Time-bounded: warm
// (checked, not measured) then measure. Count-bounded (replay != nil): each
// client runs exactly the units an earlier time-bounded run issued, so a
// peeled level sees the same stream prefix and the same state evolution.
type loadSpec struct {
	every         int // time one unit in every; 1 for requests, more for sub-µs calls
	warm, measure time.Duration
	replay        *[clients]unitCount
	traced        bool
}

// unitCount is how many units one client ran in the warm-up and in the
// measured part.
type unitCount struct{ warm, measured int }

// calAcc is the raw material of a host speed: calibration units and where
// the time went.
type calAcc struct {
	units     int           // calibration units run
	work, cal time.Duration // time in work slices and in calibration slices
	lost      time.Duration // the part of cal the loop did not run in
}

func (a *calAcc) add(o calAcc) {
	a.units += o.units
	a.work += o.work
	a.cal += o.cal
	a.lost += o.lost
}

// winAcc is what one client did in one window.
type winAcc struct {
	ops, keys, nlat int
	calAcc
}

// clientLoop is one client's side of a run.
type clientLoop struct {
	step  clientStep
	every int
	base  time.Time // start of the calibration schedule
	cal   calibrator
	wins  []winAcc
	lat   []float64 // host ms, in time order; wins[w].nlat of them per window
	tally tally
	count unitCount
}

// calibrating reports whether the schedule has t in a calibration slice.
func (cl *clientLoop) calibrating(t time.Time) bool {
	return t.Sub(cl.base)%calibPeriod >= workSlice
}

// calibrate runs the calibration loop from t to the end of its period and
// books it to window w (none if negative).
func (cl *clientLoop) calibrate(t time.Time, w int) time.Time {
	units, lost, t1 := cl.cal.spin(t, cl.base.Add((t.Sub(cl.base)/calibPeriod+1)*calibPeriod))
	if w >= 0 {
		cl.wins[w].units += units
		cl.wins[w].cal += t1.Sub(t)
		cl.wins[w].lost += lost
	}
	return t1
}

// batch runs n units from t, the first of them timed, and returns the keys
// touched, the first unit's latency and the time the batch ended.
func (cl *clientLoop) batch(t time.Time, n int) (keys int, first time.Duration, done time.Time) {
	keys = cl.step(&cl.tally)
	done = time.Now()
	first = done.Sub(t)
	if n > 1 {
		for j := 1; j < n; j++ {
			keys += cl.step(&cl.tally)
		}
		done = time.Now()
	}
	return keys, first, done
}

// book adds a batch of n units that ran from t to done to window w.
func (cl *clientLoop) book(w, n, keys int, first time.Duration, t, done time.Time) {
	a := &cl.wins[w]
	a.ops += n
	a.keys += keys
	a.nlat++
	a.work += done.Sub(t)
	cl.lat = append(cl.lat, float64(first)/1e6)
}

// timeBounded warms until warmEnd and measures until end, in windows of
// statWindow.
func (cl *clientLoop) timeBounded(warmEnd, end time.Time, sp *spanner) {
	window := func(t time.Time) int {
		if t.Before(warmEnd) {
			return -1
		}
		return min(int(t.Sub(warmEnd)/statWindow), len(cl.wins)-1)
	}
	for t := time.Now(); t.Before(end); {
		if cl.calibrating(t) {
			t = cl.calibrate(t, window(t))
			continue
		}
		if !t.Before(warmEnd) {
			sp.enable()
		}
		keys, first, done := cl.batch(t, cl.every)
		switch {
		case done.Before(warmEnd):
			cl.count.warm += cl.every
		case done.Before(end):
			cl.count.measured += cl.every
			cl.book(window(done), cl.every, keys, first, t, done)
		default:
			// Issued, so a replay must run it, but not measured.
			cl.count.measured += cl.every
		}
		t = done
	}
}

// replay runs exactly n.warm units unmeasured, then n.measured units as one
// window.
func (cl *clientLoop) replay(n unitCount, sp *spanner) {
	for i := 0; i < n.warm; i++ {
		cl.step(&cl.tally)
	}
	sp.enable()
	cl.base = time.Now()
	for t, left := cl.base, n.measured; left > 0; {
		if cl.calibrating(t) {
			t = cl.calibrate(t, 0)
			continue
		}
		b := min(cl.every, left)
		keys, first, done := cl.batch(t, b)
		cl.book(0, b, keys, first, t, done)
		t, left = done, left-b
	}
	cl.count = n
}

// runClients runs the two clients under spec. In a traced run each client
// records spans over the measured part and the system's counters are read at
// both ends of it.
func runClients(spec loadSpec, snap func(*counterSnap),
	mk func(c int, sp *spanner) clientStep) phaseResult {
	var loops [clients]*clientLoop
	var spanners [clients]*spanner
	// Every run starts from a collected heap: set-up garbage would otherwise
	// shift the first GC cycles, and with them both the rates and the peak
	// memory, from run to run.
	runtime.GC()
	start := time.Now()
	warmEnd := start.Add(spec.warm)
	end := warmEnd.Add(spec.measure)
	nwin := 1
	if spec.replay == nil {
		nwin = max(int(spec.measure/statWindow), 1)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		if spec.traced {
			spanners[c] = newSpanner(c)
		}
		sp := spanners[c]
		cl := &clientLoop{step: mk(c, sp), every: max(spec.every, 1), base: start,
			wins: make([]winAcc, nwin), lat: make([]float64, 0, 1<<16)}
		loops[c] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			if spec.replay != nil {
				cl.replay(spec.replay[c], sp)
			} else {
				cl.timeBounded(warmEnd, end, sp)
			}
		}()
	}
	var pr phaseResult
	if spec.traced && spec.replay == nil {
		time.Sleep(time.Until(warmEnd))
		pr.before.read(snap)
	}
	wg.Wait()
	if spec.traced && spec.replay == nil {
		pr.after.read(snap)
		pr.mem = memDelta{
			allocBytes: pr.after.mem.TotalAlloc - pr.before.mem.TotalAlloc,
			mallocs:    pr.after.mem.Mallocs - pr.before.mem.Mallocs,
			gcCycles:   pr.after.mem.NumGC - pr.before.mem.NumGC,
			pauseNs:    pr.after.mem.PauseTotalNs - pr.before.mem.PauseTotalNs,
		}
	}
	pr.reduce(loops)
	for c, cl := range loops {
		pr.tally.add(cl.tally)
		pr.counts[c] = cl.count
		if spec.traced {
			pr.spans[c] = spanners[c].spans
		}
	}
	return pr
}

// reduce turns the clients' windows into the run's numbers. A window counts
// only if every client both worked and calibrated in it.
func (pr *phaseResult) reduce(loops [clients]*clientLoop) {
	var lat []float64
	var offset [clients]int
	for w := range loops[0].wins {
		var speed, execSpeed, rate, keyRate float64
		whole := true
		lat = lat[:0]
		for c, cl := range loops {
			a := cl.wins[w]
			lat = append(lat, cl.lat[offset[c]:offset[c]+a.nlat]...)
			offset[c] += a.nlat
			pr.ops += a.ops
			pr.keys += a.keys
			pr.cal.add(a.calAcc)
			if a.work == 0 || a.cal <= a.lost {
				whole = false
				continue
			}
			speed += speedOf(a.units, a.cal) / clients
			execSpeed += speedOf(a.units, a.cal-a.lost) / clients
			rate += float64(a.ops) / a.work.Seconds()
			keyRate += float64(a.keys) / a.work.Seconds()
		}
		if !whole || len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		pr.win.rates = append(pr.win.rates, rate/speed)
		pr.win.keyRates = append(pr.win.keyRates, keyRate/speed)
		pr.win.p50s = append(pr.win.p50s, percentile(lat, 50)*execSpeed)
		pr.win.p95s = append(pr.win.p95s, percentile(lat, 95)*speed)
		pr.win.p99s = append(pr.win.p99s, percentile(lat, 99)*speed)
	}
	for _, cl := range loops {
		pr.lat = append(pr.lat, cl.lat...)
	}
	pr.summarize()
}

// memDelta is what the process allocated and collected during a run. It is
// summed over a phase's turns, not read at the phase's ends: the process's
// memory statistics also count what the other phase does in between.
type memDelta struct {
	allocBytes, mallocs, pauseNs uint64
	gcCycles                     uint32
}

// add folds a later run of the same clients on the same system into pr. The
// system's own counters only move while it runs, so the first run's reading
// before and the last run's after bracket them all.
func (pr *phaseResult) add(o *phaseResult) {
	for c := range pr.spans {
		// Span ids index the recording goroutine's slice: shift the later ones.
		off := int32(len(pr.spans[c]))
		for _, sp := range o.spans[c] {
			sp.ID += off
			if sp.Parent >= 0 {
				sp.Parent += off
			}
			pr.spans[c] = append(pr.spans[c], sp)
		}
		pr.counts[c].warm += o.counts[c].warm
		pr.counts[c].measured += o.counts[c].measured
	}
	pr.after = o.after
	pr.mem.allocBytes += o.mem.allocBytes
	pr.mem.mallocs += o.mem.mallocs
	pr.mem.pauseNs += o.mem.pauseNs
	pr.mem.gcCycles += o.mem.gcCycles
	pr.ops += o.ops
	pr.keys += o.keys
	pr.cal.add(o.cal)
	pr.win.rates = append(pr.win.rates, o.win.rates...)
	pr.win.keyRates = append(pr.win.keyRates, o.win.keyRates...)
	pr.win.p50s = append(pr.win.p50s, o.win.p50s...)
	pr.win.p95s = append(pr.win.p95s, o.win.p95s...)
	pr.win.p99s = append(pr.win.p99s, o.win.p99s...)
	pr.lat = append(pr.lat, o.lat...)
	pr.tally.add(o.tally)
	pr.summarize()
}

// summarize takes the medians over the windows collected so far.
func (pr *phaseResult) summarize() {
	pr.windows = len(pr.win.rates)
	pr.opsRate, pr.keysRate = median(pr.win.rates), median(pr.win.keyRates)
	pr.p50, pr.p95, pr.p99 = median(pr.win.p50s), median(pr.win.p95s), median(pr.win.p99s)
	pr.speed = speedOf(pr.cal.units, pr.cal.cal)
	if pr.cal.cal > 0 {
		pr.lostShare = pr.cal.lost.Seconds() / pr.cal.cal.Seconds()
	}
	if pr.cal.work > 0 {
		pr.rawOpsRate = float64(pr.ops) / (pr.cal.work.Seconds() / clients)
	}
	sort.Float64s(pr.lat)
}

// phaseRounds is how many times a two-phase run alternates between its
// phases. The host's speed drifts from minute to minute, so a ratio of two
// phases measured one after the other carries that drift; taking turns, both
// phases see the same minutes.
const phaseRounds = 10

// alternate measures two systems in turns: system i gets shares[i] of the
// run's seconds, in phaseRounds slices (fewer in a run too short for slices
// of a statistics window each), the first of them after a warm-up.
func alternate(rc runConfig, shares [2]float64, load func(i int, spec loadSpec) phaseResult) (phases [2]phaseResult) {
	rounds := phaseRounds
	for rounds > 1 && rc.window(min(shares[0], shares[1]))/time.Duration(rounds) < statWindow {
		rounds--
	}
	for r := 0; r < rounds; r++ {
		for i := range phases {
			spec := loadSpec{measure: rc.window(shares[i]) / time.Duration(rounds)}
			if r == 0 {
				spec.warm = rc.warmup()
				phases[i] = load(i, spec)
				continue
			}
			pr := load(i, spec)
			phases[i].add(&pr)
		}
	}
	return phases
}

// ---- counters read from the packages' exported surfaces ----

// counterSnap is one reading of everything the system under test exports.
type counterSnap struct {
	tel    telemetry.Snapshot
	srv    server.Stats // zero without a server
	dom    htm.Stats    // lib-compose: the one domain's own counters
	remaps uint64
	hasDom bool
	mem    runtime.MemStats
}

func (s *counterSnap) read(snap func(*counterSnap)) {
	snap(s)
	runtime.ReadMemStats(&s.mem)
}

// windowCounters turns two readings into the window metrics of the per-layer
// list. ops and keys are the window's completed units and keys.
func windowCounters(before, after *counterSnap, pr *phaseResult) map[string]float64 {
	m := make(map[string]float64)
	d := after.tel.Delta(before.tel)
	var site telemetry.SiteSnapshot
	for _, s := range d.Sites {
		site.Attempts += s.Attempts
		site.Commits += s.Commits
		site.Conflicts += s.Conflicts
		site.FalseConflicts += s.FalseConflicts
		site.Capacity += s.Capacity
		site.Explicit += s.Explicit
		site.Fallbacks += s.Fallbacks
		site.Disables += s.Disables
		site.Helped += s.Helped
	}
	var comp telemetry.ComposedSnapshot
	for _, c := range d.Composed {
		comp.Ops += c.Ops
		comp.FastCommits += c.FastCommits
		comp.FallbackCommits += c.FallbackCommits
		comp.ReadOnlyCommits += c.ReadOnlyCommits
		comp.MCASAttempts += c.MCASAttempts
		comp.MCASFailures += c.MCASFailures
		comp.Restarts += c.Restarts
	}
	var open telemetry.OpenSnapshot
	for _, o := range d.Open {
		open.Txns += o.Txns
		open.SemRetries += o.SemRetries
		open.UserAborts += o.UserAborts
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	m["txn.fast_commits"] = float64(comp.FastCommits)
	m["txn.fallback_commits"] = float64(comp.FallbackCommits)
	m["txn.readonly_commits"] = float64(comp.ReadOnlyCommits)
	m["txn.mcas_attempts"] = float64(comp.MCASAttempts)
	m["txn.mcas_failures"] = float64(comp.MCASFailures)
	m["txn.restarts"] = float64(comp.Restarts)

	m["speculate.attempts_per_op"] = ratio(site.Attempts, comp.Ops)
	m["speculate.commit_ratio"] = ratio(site.Commits, site.Attempts)
	m["speculate.fallbacks"] = float64(site.Fallbacks)
	m["speculate.disables"] = float64(site.Disables)
	m["speculate.helped"] = float64(site.Helped)

	m["semtx.txns"] = float64(open.Txns)
	m["semtx.sem_retries_per_ktxn"] = 1000 * ratio(open.SemRetries, open.Txns)
	m["semtx.user_aborts"] = float64(open.UserAborts)

	// The htm outcome classes: from the domain itself when the workload owns
	// it, otherwise as the speculation sites booked them (the server keeps
	// its domains private).
	h := htm.Stats{Commits: site.Commits, Conflicts: site.Conflicts,
		FalseConflicts: site.FalseConflicts, Capacity: site.Capacity, Explicit: site.Explicit}
	if after.hasDom {
		h = htm.Stats{
			Commits:        after.dom.Commits - before.dom.Commits,
			Conflicts:      after.dom.Conflicts - before.dom.Conflicts,
			FalseConflicts: after.dom.FalseConflicts - before.dom.FalseConflicts,
			Capacity:       after.dom.Capacity - before.dom.Capacity,
			Explicit:       after.dom.Explicit - before.dom.Explicit,
		}
	}
	m["htm.commits"] = float64(h.Commits)
	m["htm.conflicts_per_kcommit"] = 1000 * ratio(h.Conflicts, h.Commits)
	m["htm.false_conflict_share"] = ratio(h.FalseConflicts, h.Conflicts)
	m["htm.capacity_aborts"] = float64(h.Capacity)
	m["htm.explicit_aborts"] = float64(h.Explicit)
	m["htm.remaps"] = float64(after.remaps - before.remaps)

	var pubs, fast, fallback, batches, batchedOps, sheds uint64
	var actions, remap, batch, budget uint64
	prev := make(map[int]server.ShardStats)
	for _, sh := range before.srv.Shards {
		prev[sh.Shard] = sh
	}
	stripes := 0
	for _, sh := range after.srv.Shards {
		p := prev[sh.Shard]
		pubs += sh.Publications - p.Publications
		fast += sh.FastCommits - p.FastCommits
		fallback += sh.FallbackCommits - p.FallbackCommits
		batches += sh.Batches - p.Batches
		batchedOps += sh.BatchedOps - p.BatchedOps
		sheds += sh.Sheds - p.Sheds
		actions += sh.Tune.Actions - p.Tune.Actions
		remap += sh.Tune.RemapActions - p.Tune.RemapActions
		batch += sh.Tune.BatchActions - p.Tune.BatchActions
		budget += sh.Tune.BudgetActions - p.Tune.BudgetActions
		stripes += sh.Tune.Stripes
	}
	m["server.publications"] = float64(pubs)
	m["server.keys_per_publication"] = ratio(uint64(pr.keys), pubs)
	m["server.fast_commit_share"] = ratio(fast, fast+fallback)
	m["server.sheds"] = float64(sheds)
	m["server.batches"] = float64(batches)
	m["server.batch_mean_size"] = ratio(batchedOps, batches)
	if len(after.srv.Shards) > 0 {
		m["server.keys_per_s"] = pr.keysRate
		m["htm.remaps"] = float64(remap)
	}
	m["tune.actions"] = float64(actions)
	m["tune.remap_actions"] = float64(remap)
	m["tune.batch_actions"] = float64(batch)
	m["tune.budget_actions"] = float64(budget)
	m["tune.stripes_final"] = float64(stripes)

	m["runtime.alloc_bytes_per_op"] = ratio(pr.mem.allocBytes, uint64(pr.ops))
	m["runtime.mallocs_per_op"] = ratio(pr.mem.mallocs, uint64(pr.ops))
	m["runtime.gc_cycles"] = float64(pr.mem.gcCycles)
	m["runtime.gc_pause_total_ms"] = float64(pr.mem.pauseNs) / 1e6
	return m
}

// setPerLayer emits every per-layer metric in catalog order: measured values
// where this run has them, 0 where its workload has no such layer.
func (r *result) setPerLayer(values map[string]float64, n map[string]int) {
	for _, spec := range perLayer {
		r.set(spec.Name, values[spec.Name], spec.Unit, n[spec.Name])
	}
	for name := range values {
		if !isPerLayer(name) {
			panic(fmt.Sprintf("measured %q is not in the per-layer catalog", name))
		}
	}
}

func isPerLayer(name string) bool {
	for _, spec := range perLayer {
		if spec.Name == name {
			return true
		}
	}
	return false
}
