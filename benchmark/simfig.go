package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/simds"
)

// sim-figures generates a fixed set of the paper's figures on the modeled
// machine, again and again, each round in a process of its own. The figures
// take no seed — the same build always produces the
// same numbers — so --seed only picks nothing here; what varies run to run
// is the host time, which is the simulator's own speed.

// simScale shrinks each figure's simulated window so that one set of the
// five figures takes about half the driver's run length on a 2-core host.
// (Most of Figure 4's host time is its 32K-key prefill, which no scale
// shrinks.)
const simScale = 0.05

type figSpec struct {
	id  string
	run func(scale float64) bench.Figure
}

var simFigures = []figSpec{
	{"fig2a", bench.Fig2a},
	{"fig2b", bench.Fig2b},
	{"fig3b", func(s float64) bench.Figure { return bench.Fig3(34, s) }},
	{"fig4b", func(s float64) bench.Figure { return bench.Fig4(80, s) }},
	{"a8", bench.AblationComposedMoveSim},
}

// smokeFigures are the two cheapest, for -smoke.
var smokeFigures = []figSpec{simFigures[0], simFigures[4]}

func points(f bench.Figure) int {
	n := 0
	for _, s := range f.Series {
		n += len(s.Points)
	}
	return n
}

func series(f bench.Figure, name string) *bench.Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// sameFigure reports whether two generations of a figure agree bit for bit.
func sameFigure(a, b bench.Figure) bool {
	if len(a.Series) != len(b.Series) {
		return false
	}
	for i := range a.Series {
		if a.Series[i].Name != b.Series[i].Name || len(a.Series[i].Points) != len(b.Series[i].Points) {
			return false
		}
		for j, p := range a.Series[i].Points {
			if p != b.Series[i].Points[j] {
				return false
			}
		}
	}
	return true
}

// round is one pass over the figure list, generated in one process.
type round struct {
	Figs      []bench.Figure `json:"figs"`        // in list order
	RefS      []float64      `json:"ref_s"`       // reference seconds each took
	HostS     []float64      `json:"host_s"`      // host seconds each took
	Slices    int            `json:"slices"`      // calibration slices run meanwhile
	RSSPeakMB float64        `json:"rss_peak_mb"` // the generating process's peak resident set, when it was a process of its own
	spans     []span
}

// generateRound generates the figures in order, each from a collected heap.
//
// It runs on one P. The modeled machine is sequential — one simulated thread
// runs at a time and hands over through a channel — so a second P adds only
// wake-ups between the host's cores, which a busy host makes slow and
// erratic. On one P the hand-offs stay inside the Go scheduler, and the side
// calibrator can share that P to time each generation on the reference
// clock.
func generateRound(figures []figSpec, scale float64, sp *spanner) (r round) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cal := startSideCalibrator()
	defer func() { r.Slices = cal.close() }()
	for _, spec := range figures {
		runtime.GC() // the previous figure's machines are garbage
		s := sp.begin("bench."+spec.id, -1, 0)
		t0, r0 := time.Now(), cal.now()
		fig := spec.run(scale)
		r.RefS = append(r.RefS, cal.now()-r0)
		sp.end(s)
		r.HostS = append(r.HostS, time.Since(t0).Seconds())
		r.Figs = append(r.Figs, fig)
	}
	if sp != nil {
		r.spans = sp.spans
	}
	return r
}

// roundInChild generates a round in a process of its own (this binary, run
// with -round) and returns it with that process's peak resident set. A late
// GC cycle — the collector waiting for a core a busy host has taken away —
// overshoots the heap by up to a third, once in ten rounds or so and only
// upward; rounds in separate processes give independent readings of the
// peak, of which the run reports the smallest.
func roundInChild(rc runConfig) (r round, err error) {
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	args := []string{"-round"}
	if rc.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("figure round in a child process: %w", err)
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return r, fmt.Errorf("figure round in a child process: %w", err)
	}
	return r, nil
}

// roundChild is the child's side of roundInChild.
func roundChild(rc runConfig) int {
	runtime.GOMAXPROCS(clients) // as in every other run; generateRound takes one P of them
	figures, scale, _ := simPlan(rc)
	r := generateRound(figures, scale, nil)
	r.RSSPeakMB = rssPeakMB()
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return 0
}

// figureSet folds rounds: the first generation of each figure, every
// generation's time, and the oracle's verdicts — every point > 0, every
// regeneration bit-equal to the first.
type figureSet struct {
	figs   []bench.Figure // first generation of each figure
	refS   [][]float64    // per figure, reference seconds of every generation
	hostS  float64        // host seconds of the first round
	slices int            // calibration slices run meanwhile
	rss    []float64      // peak resident set of each round's process
	tally  tally
}

func (fs *figureSet) add(figures []figSpec, r round) {
	first := fs.figs == nil
	if first {
		fs.figs, fs.refS = r.Figs, make([][]float64, len(r.Figs))
	}
	fs.slices += r.Slices
	fs.rss = append(fs.rss, r.RSSPeakMB)
	for i, fig := range r.Figs {
		spec := figures[i]
		fs.refS[i] = append(fs.refS[i], r.RefS[i])
		if !first {
			fs.tally.attempted += points(fig)
			if !sameFigure(fs.figs[i], fig) {
				fs.tally.fail(spec.id + ": regenerated figure differs from the first generation")
			}
			continue
		}
		fs.hostS += r.HostS[i]
		for _, ser := range fig.Series {
			for _, p := range ser.Points {
				fs.tally.attempted++
				if !(p.Throughput > 0) {
					fs.tally.fail(fmt.Sprintf("%s %q at %d threads: %v, want > 0", spec.id, ser.Name, p.Threads, p.Throughput))
				}
			}
		}
	}
}

// modeled folds the figures' modeled numbers: the geomean of PTO ÷ Lockfree
// over every (X (Lockfree), X (PTO)) series pair and thread count, and the
// geomean of every point of every "(PTO…)" series plus A8's modeled fast
// path, in ops per simulated ms.
func modeled(figs []bench.Figure) (speedup, level float64, pairs, levels int) {
	var ratios, tputs []float64
	for _, f := range figs {
		for i := range f.Series {
			s := &f.Series[i]
			if strings.Contains(s.Name, "(PTO") || s.Name == "Composed (modeled fast path)" {
				for _, p := range s.Points {
					tputs = append(tputs, p.Throughput)
				}
			}
			base, ok := strings.CutSuffix(s.Name, " (PTO)")
			if !ok {
				continue
			}
			lf := series(f, base+" (Lockfree)")
			if lf == nil {
				continue
			}
			for j, p := range s.Points {
				ratios = append(ratios, p.Throughput/lf.Points[j].Throughput)
			}
		}
	}
	return geomean(ratios), geomean(tputs), len(ratios), len(tputs)
}

// setupSim is the set-up sim-figures can time from outside: one modeled
// machine built and a 64K-range hash table prefilled to half on its set-up
// thread, which is what every point of Figure 4 does before it measures.
func setupSim(keyRange uint64) time.Duration {
	start := time.Now()
	m := sim.New(sim.DefaultConfig(bench.MaxThreads))
	setup := m.Thread(0)
	h := simds.NewSimHash(setup, simds.HashPTO, 64, bench.MaxThreads)
	half := keyRange / 2
	for i := uint64(0); i < half; i++ {
		h.Insert(setup, ((i*0x9E3779B1+7)&(half-1))*2+1)
	}
	h.Stabilize(setup)
	return time.Since(start)
}

func simPlan(rc runConfig) ([]figSpec, float64, uint64) {
	if rc.smoke {
		return smokeFigures, 0.001, 1 << 10
	}
	return simFigures, simScale, 1 << 16
}

func runSim(rc runConfig) (*result, error) {
	figures, scale, keyRange := simPlan(rc)
	if rc.trace {
		return traceSim(rc, figures, scale)
	}
	res := newResult("sim-figures", rc)
	var setups []float64
	for i := 0; i < rc.extraSetups+2; i++ {
		setups = append(setups, onRefClock(func() time.Duration { return setupSim(keyRange) }))
	}
	// Whole rounds, each in a process of its own: as many as end nearest to
	// the run's seconds.
	var fs figureSet
	for start, rounds := time.Now(), 1.0; ; rounds++ {
		r, err := roundInChild(rc)
		if err != nil {
			return nil, err
		}
		fs.add(figures, r)
		if elapsed := time.Since(start).Seconds(); elapsed+elapsed/rounds/2 >= rc.seconds {
			break
		}
	}
	res.tally.add(fs.tally)

	var perFigMs []float64
	var total float64
	npoints, nsamples := 0, 0
	for i, f := range fs.figs {
		med := median(fs.refS[i])
		perFigMs = append(perFigMs, med*1000)
		total += med
		npoints += points(f)
		nsamples += len(fs.refS[i])
	}
	speedup, level, pairs, levels := modeled(fs.figs)
	if speedup == 0 || level == 0 {
		res.tally.fail("modeled geomean undefined: a series pair or a point is missing or not positive")
	}
	sort.Float64s(perFigMs)
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("ops_per_s", float64(npoints)/total, "1/s", nsamples)
	res.set("p50_ms", percentile(perFigMs, 50), "ms", len(perFigMs))
	res.set("p99_ms", percentile(perFigMs, 99), "ms", len(perFigMs))
	res.set("pto_speedup", speedup, "x", pairs)
	res.set("rss_peak_mb", slices.Min(fs.rss), "MB", len(fs.rss))
	res.info("figure_set_s", total, "s", nsamples)
	res.info("host_s", fs.hostS, "s", len(fs.figs))
	first := 0.0
	for _, ref := range fs.refS {
		first += ref[0]
	}
	res.info("host_speed", first/fs.hostS, "x", fs.slices)
	res.info("sim_ops_per_simms", level, "1/simms", levels)
	return res, nil
}

// traceSim generates one untraced and one traced set (a span per figure) and
// reports the per-figure host times and the exact modeled rows.
func traceSim(rc runConfig, figures []figSpec, scale float64) (*result, error) {
	tr := newTracedRun("sim-figures", rc)
	var u, t figureSet
	u.add(figures, generateRound(figures, scale, nil))
	sp := newSpanner(0)
	sp.enable()
	traced := generateRound(figures, scale, sp)
	t.add(figures, traced)
	tr.res.tally.add(u.tally)
	tr.res.tally.add(t.tally)
	tr.file.Sections["figures"] = newTraceSec(traced.spans)

	var uTotal, tTotal float64
	for i, spec := range figures {
		tr.put("bench."+spec.id+"_host_s", t.refS[i][0], 1)
		uTotal += u.refS[i][0]
		tTotal += t.refS[i][0]
		tr.res.tally.attempted++
		if !sameFigure(u.figs[i], t.figs[i]) {
			tr.res.tally.fail(spec.id + ": traced generation differs from the untraced one")
		}
	}
	tr.put("trace.overhead_pct", 100*(tTotal-uTotal)/uTotal, 2*len(figures))
	at8 := func(id, name, metric string) {
		for i, spec := range figures {
			if s := series(t.figs[i], name); spec.id == id && s != nil {
				tr.put(metric, s.Points[len(s.Points)-1].Throughput, 1)
			}
		}
	}
	at8("fig3b", "Tree (PTO)", "bench.fig3b_tree_pto_8t")
	at8("fig4b", "Hash (PTO)", "bench.fig4b_hash_pto_8t")
	at8("fig2b", "Mound (PTO)", "bench.fig2b_mound_pto_8t")
	at8("a8", "Composed (modeled fast path)", "bench.a8_fast_8t")
	_, level, _, levels := modeled(t.figs)
	tr.put("bench.pto_ops_per_simms", level, levels)
	return tr.finish()
}
