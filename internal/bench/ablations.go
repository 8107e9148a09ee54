package bench

import (
	"repro/internal/sim"
	"repro/internal/simds"
)

// Ablations for the design choices DESIGN.md calls out: the retry budgets
// the paper tunes per structure (§3.1, §4.2, §4.4), PTO's obliviousness to
// HTM capacity (§7 of the paper: "Our technique is oblivious to the
// capacity of the underlying HTM"), and the SMT sharing that produces the
// knee at four threads in every figure.

// AblationMindicatorRetries sweeps the Mindicator's transaction attempt
// budget (the paper settled on three) at 4 and 8 threads. X axis: attempts.
func AblationMindicatorRetries(scale float64) Figure {
	w := scaled(windowMind, scale)
	budgets := []int{1, 2, 3, 4, 6, 8}
	f := Figure{
		ID:     "Ablation A1",
		Title:  "Mindicator transaction retry budget (paper's choice: 3)",
		XLabel: "attempts",
		YLabel: "ops/ms",
	}
	for _, threads := range []int{4, 8} {
		s := Series{Name: sprintfTitle("PTO @ %d threads", threads)}
		for _, n := range budgets {
			n := n
			tput := measure(threads, w, func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
				mi := simds.NewMindicator(setup, simds.MindPTO, 64).WithPolicy(simPolicyAttempts(n))
				return func(t *sim.Thread) {
					t.Work(opOverhead)
					mi.Arrive(t, t.ID(), int32(t.Rand()%100000))
					mi.Depart(t, t.ID())
				}
			})
			s.Points = append(s.Points, Point{Threads: n, Throughput: tput})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// AblationMoundRetries sweeps the Mound's DCAS transaction retry budget
// (the paper settled on four). X axis: attempts.
func AblationMoundRetries(scale float64) Figure {
	w := scaled(windowPQ, scale)
	budgets := []int{1, 2, 4, 8}
	f := Figure{
		ID:     "Ablation A2",
		Title:  "Mound DCAS retry budget (paper's choice: 4)",
		XLabel: "attempts",
		YLabel: "ops/ms",
	}
	for _, threads := range []int{4, 8} {
		s := Series{Name: sprintfTitle("PTO @ %d threads", threads)}
		for _, n := range budgets {
			n := n
			tput := measure(threads, w, func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
				q := simds.NewSimMound(setup, true, false, 15).WithPolicy(simPolicyAttempts(n))
				for i := 0; i < pqPrefill; i++ {
					q.Insert(setup, splitmixRand(uint64(i))%pqRange)
				}
				return func(t *sim.Thread) {
					t.Work(opOverhead)
					if t.Rand()%2 == 0 {
						q.Insert(t, t.Rand()%pqRange)
					} else {
						q.RemoveMin(t)
					}
				}
			})
			s.Points = append(s.Points, Point{Threads: n, Throughput: tput})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// AblationBSTBudgets sweeps the BST's (PTO1, PTO2) attempt budgets around
// the paper's (2, 16) on the write-only setbench at 8 threads. X axis:
// configuration index into the budget list.
func AblationBSTBudgets(scale float64) Figure {
	w := scaled(windowSet, scale)
	type combo struct{ a1, a2 int }
	combos := []combo{{1, 1}, {1, 8}, {2, 8}, {2, 16}, {4, 16}, {4, 32}}
	f := Figure{
		ID:     "Ablation A3",
		Title:  "BST (PTO1,PTO2) budgets: 1=(1,1) 2=(1,8) 3=(2,8) 4=(2,16)* 5=(4,16) 6=(4,32)",
		XLabel: "config",
		YLabel: "ops/ms",
	}
	s := Series{Name: "PTO1+PTO2 @ 8 threads"}
	for i, c := range combos {
		c := c
		tput := measure(8, w, func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
			b := simds.NewSimBST(setup, simds.BSTPTO12, false, m.Config().Threads).WithPolicy(simPolicy()).WithBudgets(c.a1, c.a2)
			prefillSet(setup, 512, b.Insert)
			return setOp(0, 512, b.Insert, b.Remove, b.Contains)
		})
		s.Points = append(s.Points, Point{Threads: i + 1, Throughput: tput})
	}
	f.Series = append(f.Series, s)
	return f
}

// AblationCapacity shrinks the HTM's read-set tracking capacity under the
// whole-operation BST transaction. PTO degrades gracefully toward the
// lock-free baseline — it never falls below it — confirming the paper's
// claim that the technique is oblivious to HTM capacity.
func AblationCapacity(scale float64) Figure {
	w := scaled(windowSet, scale)
	caps := []int{2, 4, 8, 64, 4096}
	f := Figure{
		ID:     "Ablation A4",
		Title:  "HTM read-set capacity (lines) under BST PTO1, 4 threads",
		XLabel: "lines",
		YLabel: "ops/ms",
	}
	build := func(kind simds.BSTKind) buildFunc {
		return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
			b := simds.NewSimBST(setup, kind, false, m.Config().Threads).WithPolicy(simPolicy())
			prefillSet(setup, 512, b.Insert)
			return setOp(0, 512, b.Insert, b.Remove, b.Contains)
		}
	}
	pto := Series{Name: "Tree (PTO1)"}
	lf := Series{Name: "Tree (Lockfree)"}
	for _, c := range caps {
		cfg := sim.DefaultConfig(4)
		cfg.ReadSetLines = c
		pto.Points = append(pto.Points, Point{Threads: c,
			Throughput: measureCfg(cfg, w, build(simds.BSTPTO1))})
		lf.Points = append(lf.Points, Point{Threads: c,
			Throughput: measureCfg(cfg, w, build(simds.BSTLockfree))})
	}
	f.Series = []Series{pto, lf}
	return f
}

// AblationSMT reruns the Mindicator sweep with SMT resource sharing
// disabled, isolating the source of the knee at four threads.
func AblationSMT(scale float64) Figure {
	w := scaled(windowMind, scale)
	f := Figure{
		ID:     "Ablation A5",
		Title:  "SMT sharing and the four-thread knee (Mindicator PTO)",
		YLabel: "ops/ms",
	}
	for _, factor := range []float64{1.55, 1.0} {
		name := "SMT factor 1.55 (default)"
		if factor == 1.0 {
			name = "SMT factor 1.0 (no sharing)"
		}
		s := Series{Name: name}
		for n := 1; n <= MaxThreads; n++ {
			cfg := sim.DefaultConfig(n)
			cfg.SMTFactor = factor
			tput := measureCfg(cfg, w, func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
				mi := simds.NewMindicator(setup, simds.MindPTO, 64).WithPolicy(simPolicy())
				return func(t *sim.Thread) {
					t.Work(opOverhead)
					mi.Arrive(t, t.ID(), int32(t.Rand()%100000))
					mi.Depart(t, t.ID())
				}
			})
			s.Points = append(s.Points, Point{Threads: n, Throughput: tput})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Ablations regenerates all ablation tables.
func Ablations(scale float64) []Figure {
	return []Figure{
		AblationMindicatorRetries(scale),
		AblationMoundRetries(scale),
		AblationBSTBudgets(scale),
		AblationCapacity(scale),
		AblationSMT(scale),
		AblationAdaptivePolicy(scale),
		AblationComposedMove(scale),
		AblationComposedMoveSim(scale),
		AblationSemantic(scale),
		AblationThreePath(scale),
		AblationFrontier(scale),
	}
}
