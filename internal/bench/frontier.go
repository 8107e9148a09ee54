package bench

import (
	"fmt"

	"repro/internal/semtx"
	"repro/internal/sim"
	"repro/internal/simds"
	"repro/internal/simtxn"
)

// Ablation A12: the hardware frontier. The simulator goes where real
// silicon can't: each composed-footprint shape runs on the FORTH-style
// BoundedSet machine (sim.ModelBoundedSet) across a sweep of set-size
// budgets, with and without the NBTC commit mode, next to its throughput on
// the default RTM-like machine. The question the sweep answers is the
// ROADMAP's "which future hardware does the composed layer actually want":
// for every shape there is a set-size threshold below which the tiny exact
// sets cannot hold the footprint — every fast-path attempt dies on capacity
// and the shape rides the MultiCAS fallback — and above which the bounded
// design recovers the fast path (and, with its exact read sets, sheds the
// RTM filter's false aborts). The NBTC arm asks whether deferring the
// fallback's publication into one commit-time batch shifts that threshold:
// a publication batch is much smaller than the body that produced it, so it
// can fit a budget the body itself overflows.
//
// Shapes, in rising footprint order: a single-structure op (BST
// insert/remove), the cross-structure pair Move, batched MoveAll at k=4 and
// k=16, and an open semtx body (probe + conditional cross-structure move
// with semantic validation). All arms are modeled and deterministic.
const a12Threads = 4

// a12SetLines is the swept per-side budget (read lines = write lines).
var a12SetLines = []int{4, 8, 16, 32, 64}

// frontierFitFrac: a bounded arm "fits" at the smallest budget where it
// reaches this fraction of the shape's RTM-baseline throughput.
const frontierFitFrac = 0.8

// FrontierShapePoint is one swept budget of one shape.
type FrontierShapePoint struct {
	// SetLines is the per-side budget (BoundedReadLines = BoundedWriteLines).
	SetLines int
	// Bounded is ops/ms on the BoundedSet machine.
	Bounded float64
	// BoundedNBTC is ops/ms on the same machine with NBTC publication.
	BoundedNBTC float64
}

// FrontierShape is one composed-footprint shape's sweep.
type FrontierShape struct {
	Shape string
	// Baseline is ops/ms on the default RTM-like machine.
	Baseline float64
	Points   []FrontierShapePoint
	// FitLines is the smallest swept budget where the bounded arm reaches
	// frontierFitFrac of Baseline (0 = never fits in the sweep) — the
	// shape's set-size threshold.
	FitLines int
	// NBTCFitLines is the same threshold for the bounded+NBTC arm.
	NBTCFitLines int
}

// FrontierResult is the deterministic A12 sample.
type FrontierResult struct {
	Threads int
	Shapes  []FrontierShape
	// BoundedSetOK: at least one shape both falls behind the RTM baseline
	// at the smallest budget and recovers at a larger one — the sweep
	// actually located a set-size threshold.
	BoundedSetOK bool
	// NBTCOK: at least one shape where the NBTC arm shifts the threshold to
	// a smaller budget, or beats the plain bounded arm at a budget below
	// the threshold — the commit-time batch bought back hardware commits
	// the body itself could not fit.
	NBTCOK bool
}

// FrontierSample runs the modeled sweep and returns the result row.
func FrontierSample(scale float64) FrontierResult {
	w := scaled(windowSet, scale)
	r := FrontierResult{Threads: a12Threads}
	for _, sh := range frontierShapes {
		fs := FrontierShape{Shape: sh.name}
		fs.Baseline = measureCfg(sim.DefaultConfig(a12Threads), w, sh.build(frontierMgr(false)))
		for _, lines := range a12SetLines {
			cfg := frontierConfig(a12Threads, lines)
			p := FrontierShapePoint{
				SetLines:    lines,
				Bounded:     measureCfg(cfg, w, sh.build(frontierMgr(false))),
				BoundedNBTC: measureCfg(cfg, w, sh.build(frontierMgr(true))),
			}
			fs.Points = append(fs.Points, p)
			if fs.FitLines == 0 && p.Bounded >= frontierFitFrac*fs.Baseline {
				fs.FitLines = lines
			}
			if fs.NBTCFitLines == 0 && p.BoundedNBTC >= frontierFitFrac*fs.Baseline {
				fs.NBTCFitLines = lines
			}
		}
		behindAtSmallest := fs.Points[0].Bounded < frontierFitFrac*fs.Baseline
		if behindAtSmallest && fs.FitLines > 0 {
			r.BoundedSetOK = true
		}
		if (fs.NBTCFitLines > 0 && (fs.FitLines == 0 || fs.NBTCFitLines < fs.FitLines)) ||
			frontierNBTCWinsBelowThreshold(fs) {
			r.NBTCOK = true
		}
		r.Shapes = append(r.Shapes, fs)
	}
	return r
}

// frontierNBTCWinsBelowThreshold reports whether the NBTC arm beats the
// plain bounded arm at any budget where the bounded arm is still behind the
// baseline — the regime where publication is what's overflowing.
func frontierNBTCWinsBelowThreshold(fs FrontierShape) bool {
	for _, p := range fs.Points {
		if p.Bounded < frontierFitFrac*fs.Baseline && p.BoundedNBTC > p.Bounded {
			return true
		}
	}
	return false
}

// AblationFrontier renders the A12 sweep as a figure: x is the set-size
// budget (in the Threads column), three series per shape (RTM baseline
// replicated across the sweep, bounded, bounded+NBTC). The title carries
// the two acceptance bits that TestFrontierSample asserts.
func AblationFrontier(scale float64) Figure {
	r := FrontierSample(scale)
	f := Figure{
		ID: "Ablation A12",
		Title: fmt.Sprintf(
			"Hardware frontier: BoundedSet set-size sweep × composed shapes at %d threads (bounded_set_ok=%v nbtc_ok=%v)",
			r.Threads, r.BoundedSetOK, r.NBTCOK),
		XLabel: "set lines",
		YLabel: "ops/ms",
	}
	for _, fs := range r.Shapes {
		base := Series{Name: fmt.Sprintf("%s (rtm baseline)", fs.Shape)}
		bounded := Series{Name: fmt.Sprintf("%s (bounded, fit=%d)", fs.Shape, fs.FitLines)}
		nbtc := Series{Name: fmt.Sprintf("%s (bounded+nbtc, fit=%d)", fs.Shape, fs.NBTCFitLines)}
		for _, p := range fs.Points {
			base.Points = append(base.Points, Point{Threads: p.SetLines, Throughput: fs.Baseline})
			bounded.Points = append(bounded.Points, Point{Threads: p.SetLines, Throughput: p.Bounded})
			nbtc.Points = append(nbtc.Points, Point{Threads: p.SetLines, Throughput: p.BoundedNBTC})
		}
		f.Series = append(f.Series, base, bounded, nbtc)
	}
	return f
}

// frontierConfig is the BoundedSet machine with symmetric per-side budgets.
func frontierConfig(threads, lines int) sim.Config {
	cfg := sim.DefaultConfig(threads)
	cfg.Model = sim.ModelBoundedSet
	cfg.BoundedReadLines = lines
	cfg.BoundedWriteLines = lines
	return cfg
}

// frontierMgr returns the constructor of the sweep's own composed-layer
// manager: A12 sweeps hardware explicitly, independent of the
// package-level SetHardware override that newSimManager applies.
func frontierMgr(nbtc bool) func() *simtxn.Manager {
	return func() *simtxn.Manager {
		mgr := simtxn.New(0).WithPolicy(simPolicy())
		if nbtc {
			mgr.WithNBTC(true)
		}
		return mgr
	}
}

// frontierShapes builds each shape with a given manager constructor. The
// pair and batched shapes are A8's builders on the fast path.
var frontierShapes = []struct {
	name  string
	build func(newMgr func() *simtxn.Manager) buildFunc
}{
	{"single-op", buildFrontierSingle},
	{"pair-move", func(newMgr func() *simtxn.Manager) buildFunc { return buildComposedMoveSim(newMgr, composeFast, 0) }},
	{"moveall-4", func(newMgr func() *simtxn.Manager) buildFunc { return buildComposedMoveAllSim(newMgr, 4) }},
	{"moveall-16", func(newMgr func() *simtxn.Manager) buildFunc { return buildComposedMoveAllSim(newMgr, 16) }},
	{"semtx-open", buildFrontierSemtx},
}

// buildFrontierSingle: one composed operation per op, one structure — the
// smallest footprint a composed transaction can have.
func buildFrontierSingle(newMgr func() *simtxn.Manager) buildFunc {
	const keyRange = 256
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		mgr := newMgr()
		b := simds.NewSimBST(setup, simds.BSTPTO12, false, m.Config().Threads).WithPolicy(simPolicy())
		prefillSet(setup, keyRange, b.Insert)
		return func(t *sim.Thread) {
			t.Work(opOverhead)
			x := t.Rand()
			k := x%keyRange + 1
			mgr.Atomic(t, func(c *simtxn.Ctx) {
				if x>>40&1 == 0 {
					b.TxInsert(c, k)
				} else {
					b.TxRemove(c, k)
				}
			})
		}
	}
}

// buildFrontierSemtx: an open multi-op body — probe one set, conditionally
// move the key to the other — committed with semantic validation; the
// commit's combined validate+apply operation is the footprint under test.
func buildFrontierSemtx(newMgr func() *simtxn.Manager) buildFunc {
	const keyRange = 64
	return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		mgr := newMgr()
		reg := mgr.Structures()
		b := simds.NewSimBST(setup, simds.BSTPTO12, false, m.Config().Threads)
		h := simds.NewSimHash(setup, simds.HashPTO, 16, m.Config().Threads)
		h.Stabilize(setup)
		reg.AddSet("bst", b)
		reg.AddSet("hashtable", h)
		prefillSet(setup, keyRange, b.Insert)
		sm := semtx.New[*simtxn.Ctx, uint64](mgr.On(setup), reg).
			WithStamp(semtx.SimStamp(setup))
		return func(t *sim.Thread) {
			t.Work(opOverhead)
			x := mgr.On(t)
			r := t.Rand()
			k := r%keyRange + 1
			k2 := (r>>16)%keyRange + 1
			sm.RunOn(x, func(tx *semtx.Tx[*simtxn.Ctx, uint64]) error {
				if tx.Get("bst", k) {
					tx.Delete("bst", k)
					tx.Put("hashtable", k)
				} else if tx.Get("hashtable", k2) {
					tx.Delete("hashtable", k2)
					tx.Put("bst", k2)
				}
				return nil
			})
		}
	}
}
