package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/telemetry"
	"repro/internal/tune"
	"repro/internal/txn"
)

// Ablation A11: the self-tuning controller (internal/tune) against a
// phase-changing adversary. One run visits two regimes in sequence on the
// same domain and structures, batched MoveAll chunks over per-thread
// disjoint key lanes in both:
//
//   - capacity-heavy: the domain's write capacity drops to a11WriteCap. A
//     chunk wider than the capacity allows aborts deterministically on
//     footprint overflow and pays the slow MultiCAS fallback for the whole
//     batch; a chunk that fits commits on the fast path. No key is shared
//     between threads, so capacity is the only failure mode.
//
//   - calm: full capacity restored. Now wide batches are strictly better —
//     one composed publication amortizes its begin/validate/commit overhead
//     over 16 keys instead of 2.
//
// The static arms pin the batch width k to one corner each — "lean" is right
// for the capacity phase and wrong for the calm one, "wide" is the reverse —
// so neither can win everywhere. The adaptive arm starts from a middling batch width and lets
// the controller steer: law B's AIMD walks k down when capacity aborts
// appear and back up through the calm phase, law C trims the fast budget
// while commits collapse. The claim (the adaptive_ok bit): the controller
// holds every phase near that phase's best static arm and therefore beats
// both static arms on aggregate throughput, and it visibly acted
// (controller_actions > 0 — a zero-action "win" would mean the adversary
// never pressured the laws at all).
//
// Wall-clock numbers vary with the host, so like A6/A7 this figure is only
// emitted under -ablations or by ID; the cross-host stable signals
// (controller_actions, adaptive_ok, the end-state batch width) ride the
// series names.
const (
	a11Threads = 4
	a11Buckets = 512
	// a11LaneKeys is each thread's private lane length.
	a11LaneKeys = 64
	// a11WriteCap is the capacity phase's write-footprint ceiling: a
	// hash-table move costs two bucket-word writes per key, so the wide
	// batch (16 keys, 32 writes) overflows while the lean batch fits.
	a11WriteCap = 12
	// Static corners: lean = capacity-phase-tuned (no batching at all, the
	// most footprint-conservative shape), wide = calm-tuned.
	a11LeanBatch = 1
	a11WideBatch = 32
	// a11StartBatch is the adaptive arm's deliberately-middling start.
	a11StartBatch = 8
	// a11PhaseWindow is one phase's wall-clock window at scale 1.0;
	// a11TuneInterval the controller cadence — 1ms so the additive half of
	// the AIMD walk (one step per interval) converges well inside a phase
	// even at the smoke-test floor.
	a11PhaseWindow  = 120 * time.Millisecond
	a11PhaseFloor   = 90 * time.Millisecond
	a11TuneInterval = time.Millisecond
	// a11PhaseTolerance is the per-phase noise allowance for the
	// adaptive_ok bit: the adaptive arm must reach this fraction of the
	// best static arm in every phase (it pays a real adaptation transient
	// at each phase boundary). The aggregate comparison is strict.
	a11PhaseTolerance = 0.7
)

// batchKnob is the bench-side BatchSetter (law B's actuation surface
// outside the server): the MoveAll chunk width the lane workload reads
// before each batch.
type batchKnob struct {
	k   atomic.Int64
	max int64
}

func newBatchKnob(start, max int) *batchKnob {
	b := &batchKnob{max: int64(max)}
	b.k.Store(int64(start))
	return b
}

func (b *batchKnob) BatchK() int { return int(b.k.Load()) }

func (b *batchKnob) SetBatchK(n int) int {
	if n < 1 {
		n = 1
	}
	if int64(n) > b.max {
		n = int(b.max)
	}
	b.k.Store(int64(n))
	return n
}

// SelfTuneArm is one arm's measured row: moved keys per millisecond for each
// phase (the median of three sub-windows) and the aggregate — the mean of
// the phase rates, i.e. the whole-run rate under the equal phase windows the
// schedule uses.
type SelfTuneArm struct {
	Name      string
	PhaseTput []float64
	Aggregate float64
}

// SelfTuneResult is one A11 run: both static corners, the adaptive arm, the
// controller's final state (batch width, per-law action counts), and the
// acceptance bit.
type SelfTuneResult struct {
	Static   []SelfTuneArm
	Adaptive SelfTuneArm
	// Tune is the adaptive arm's controller snapshot at the end of the run;
	// Tune.Actions is the controller_actions total the A11 smoke greps.
	Tune tune.Snapshot
	// AdaptiveOK: the controller acted, the adaptive arm reached
	// a11PhaseTolerance of the best static arm in every phase, and it beat
	// every static arm on aggregate throughput.
	AdaptiveOK bool
}

// AblationSelfTune regenerates the A11 table (wall clock; emitted only
// under -ablations or by ID).
func AblationSelfTune(scale float64) Figure {
	r := SelfTuneSample(scale)
	f := Figure{
		ID:     "Ablation A11",
		Title:  "Self-tuning controller vs static corners under a phase-changing adversary (wall clock)",
		XLabel: "phase (1=capacity-heavy 2=calm)",
		YLabel: "work/ms",
	}
	arms := append(append([]SelfTuneArm{}, r.Static...), r.Adaptive)
	for i, a := range arms {
		name := a.Name
		if i == len(arms)-1 {
			name = fmt.Sprintf("%s (controller_actions=%d batch=%d budget=%d, k_end=%d, adaptive_ok=%v)",
				a.Name, r.Tune.Actions, r.Tune.BatchActions, r.Tune.BudgetActions, r.Tune.BatchK, r.AdaptiveOK)
		}
		s := Series{Name: fmt.Sprintf("%s aggregate=%.1f", name, a.Aggregate)}
		for p, tput := range a.PhaseTput {
			s.Points = append(s.Points, Point{Threads: p + 1, Throughput: tput})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// SelfTuneSample runs all three arms and computes the acceptance bit.
func SelfTuneSample(scale float64) SelfTuneResult {
	var r SelfTuneResult
	lean, _ := runSelfTuneArm(fmt.Sprintf("Static lean (k=%d)", a11LeanBatch), a11LeanBatch, false, scale)
	wide, _ := runSelfTuneArm(fmt.Sprintf("Static wide (k=%d)", a11WideBatch), a11WideBatch, false, scale)
	r.Static = []SelfTuneArm{lean, wide}
	r.Adaptive, r.Tune = runSelfTuneArm("Adaptive controller", a11StartBatch, true, scale)

	r.AdaptiveOK = r.Tune.Actions > 0
	for p := range r.Adaptive.PhaseTput {
		best := 0.0
		for _, a := range r.Static {
			if a.PhaseTput[p] > best {
				best = a.PhaseTput[p]
			}
		}
		if r.Adaptive.PhaseTput[p] < a11PhaseTolerance*best {
			r.AdaptiveOK = false
		}
	}
	for _, a := range r.Static {
		if r.Adaptive.Aggregate <= a.Aggregate {
			r.AdaptiveOK = false
		}
	}
	return r
}

// a11Lane is one thread's persistent lane cursor across the batched phases:
// which table currently holds the lane's keys and how far into the lane the
// next chunk starts.
type a11Lane struct {
	onDst bool
	pos   int
}

// runSelfTuneArm measures one arm: fresh domain, tables, and (for the
// adaptive arm) a running controller; the same two-phase schedule for
// everyone. Returns the arm row and the final controller snapshot (zero for
// static arms).
func runSelfTuneArm(name string, batch int, adaptive bool, scale float64) (SelfTuneArm, tune.Snapshot) {
	reg := telemetry.NewRegistry()
	d := htm.NewDomain(0, 0)
	m := txn.NewIn(d, 0).WithPolicy(realPolicy().WithMetrics(reg)).WithMiddle(0, 0)
	src := hashtable.NewPTOTableIn(d, a11Buckets, 0)
	dst := hashtable.NewPTOTableIn(d, a11Buckets, 0)
	// Lane keys all start on src.
	lanes := make([]a11Lane, a11Threads)
	for g := 0; g < a11Threads; g++ {
		for i := 0; i < a11LaneKeys; i++ {
			kk := a11LaneKey(g, i)
			m.Atomic(func(c *txn.Ctx) { src.TxInsert(c, kk) })
		}
	}

	knob := newBatchKnob(batch, a11WideBatch)
	var ctrl *tune.Controller
	if adaptive {
		ctrl = tune.New(tune.Config{
			Registry:   reg,
			SitePrefix: "txn/atomic",
			Interval:   a11TuneInterval,
			Batch:      knob,
			MinBatch:   1,
			MaxBatch:   a11WideBatch,
			Budgets:    m.Site().Actuator(),
		})
		ctrl.Start()
	}

	window := time.Duration(float64(a11PhaseWindow) * scale)
	if window < a11PhaseFloor {
		window = a11PhaseFloor
	}
	arm := SelfTuneArm{Name: name}
	for _, writeCap := range []int{a11WriteCap, 0} {
		d.SetCapacity(0, writeCap)
		// The COW tables allocate on every move, so the collector runs
		// throughout; flush it at the phase boundary and take the median of
		// three sub-windows so one badly-sampled pause cannot swing an
		// arm's phase row.
		runtime.GC()
		var rates []float64
		for rep := 0; rep < 3; rep++ {
			work, ms := runA11Phase(window/3, m, src, dst, knob, lanes)
			rates = append(rates, work/ms)
		}
		sort.Float64s(rates)
		arm.PhaseTput = append(arm.PhaseTput, rates[1])
		arm.Aggregate += rates[1] / 2
	}
	var snap tune.Snapshot
	if ctrl != nil {
		ctrl.Stop()
		snap = ctrl.Snapshot()
	}
	return arm, snap
}

func a11LaneKey(g, i int) int64 {
	return int64(g*a11LaneKeys + i + 1)
}

// runA11Phase runs the lane workload for the window and returns (moved keys,
// elapsed ms): each thread bounces its private lane between the tables in
// chunks of the knob's current width. Every worker yields once per op so
// the threads actually interleave on small hosts (same harness choice as
// A10).
func runA11Phase(window time.Duration, m *txn.Manager,
	src, dst *hashtable.PTOTable, knob *batchKnob, lanes []a11Lane) (float64, float64) {
	var stop atomic.Bool
	var total atomic.Int64
	var wg, ready, start sync.WaitGroup
	ready.Add(a11Threads)
	start.Add(1)
	for g := 0; g < a11Threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			chunk := make([]int64, 0, a11WideBatch)
			ready.Done()
			start.Wait()
			n := int64(0)
			for !stop.Load() {
				ln := &lanes[g]
				k := knob.BatchK()
				chunk = chunk[:0]
				for i := 0; i < k && ln.pos+i < a11LaneKeys; i++ {
					chunk = append(chunk, a11LaneKey(g, ln.pos+i))
				}
				from, to := src, dst
				if ln.onDst {
					from, to = dst, src
				}
				n += int64(txn.MoveAll(m, from, to, chunk...))
				ln.pos += len(chunk)
				if ln.pos >= a11LaneKeys {
					ln.pos = 0
					ln.onDst = !ln.onDst
				}
				runtime.Gosched()
			}
			total.Add(n)
		}(g)
	}
	ready.Wait()
	begin := time.Now()
	start.Done()
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(begin)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(total.Load()), float64(elapsed.Nanoseconds()) / 1e6
}
