// Command ptobench regenerates the paper's evaluation figures on the
// simulated machine and prints them as text tables (optionally CSV).
//
// Usage:
//
//	ptobench [-figure all|2a|2b|3a|3b|3c|4a|4b|4c|5a|5b|5c|a1..a6|a8..a10|a12|e1|e2] [-scale 1.0] [-csv]
//	         [-policy adaptive|fixed] [-attempts N]
//	         [-model rtm|bounded] [-bounded-reads N] [-bounded-writes N] [-nbtc]
//
// -figure also accepts individual ablation (a1..a6, a8..a10, a12) and
// extension (e1, e2) IDs; -ablations / -extensions run each full set.
// -policy/-attempts build ONE speculation policy (speculate.Policy)
// installed on every structure the benchmarks construct, on both
// substrates: the real runtime (the wall-clock ablations A6, A9 and A10's
// wall arms) and the simulated machine (everything else) run the same
// attempt/backoff/fallback engine, so one flag steers both.
// -model/-bounded-reads/-bounded-writes select the simulated HTM design
// (sim.HTMModel) under every modeled figure, and -nbtc publishes composed
// fallbacks through the commit-time NBTC batch; ablation A12 ignores these
// overrides and sweeps hardware explicitly. A negative -attempts or
// budget, or a budget without -model bounded, is refused (exit 2) rather
// than ignored.
//
// Figures (Liu, Zhou, Spear, SPAA 2015):
//
//	2a  Mindicator microbenchmark (lock-free vs PTO vs TLE)
//	2b  Priority queues (Mound and SkipQ, lock-free vs PTO)
//	3a-c  Search structures (BST and skiplist) at 0/34/100% lookups
//	4a-c  Hash table at 0/80/100% lookups
//	5a  PTO composition on the BST
//	5b  Fence elimination on the Mound
//	5c  Fence elimination on the BST
//
// The composed-layer ablation A8 (deterministic) carries the structure ×
// substrate matrix of the shared adapter contract: a simulated-skiplist pair
// arm, a skipq+skiplist MoveMin/MoveToPQ arm and a batched-MoveAll sweep
// (k=4, 16). The same fast-path-over-fallback claim on the Go runtime is the
// benchmark's lib-compose workload (its pto_speedup). A10 is the three-path
// speculation shape (fast / helping-middle / slow) under the
// occupied-fallback adversary, with deterministic modeled arms and
// wall-clock arms. A12 is the hardware frontier: BoundedSet set-size
// budgets × composed-footprint shapes vs the RTM-like baseline, with and
// without NBTC, deterministic.
//
// -scale shrinks or stretches the simulated measurement window (1.0 is the
// duration used for EXPERIMENTS.md). Runs are deterministic.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/speculate"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate (paper figures, ablations a1..a6, a8..a10 and a12, extensions e1 e2)")
	scale := flag.Float64("scale", 1.0, "measurement window scale factor")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	ablations := flag.Bool("ablations", false, "also run the ablation tables (A1-A6, A8-A10, A12; A6, A9 and A10's wall arms are wall-clock)")
	extensions := flag.Bool("extensions", false, "also run the extension tables (E1-E2)")
	policy := flag.String("policy", "", "speculation policy for both substrates: adaptive or fixed (empty = per-substrate default)")
	attempts := flag.Int("attempts", 0, "override every speculation attempt budget (0 = per-structure defaults; implies -policy fixed if unset)")
	model := flag.String("model", "", "simulated HTM model for every modeled figure: rtm or bounded (empty = rtm)")
	boundedReads := flag.Int("bounded-reads", 0, "BoundedSet read budget in lines (0 = sim default; only with -model bounded)")
	boundedWrites := flag.Int("bounded-writes", 0, "BoundedSet write budget in lines (0 = sim default; only with -model bounded)")
	nbtc := flag.Bool("nbtc", false, "publish composed fallbacks via the NBTC commit-time batch on the modeled substrate")
	flag.Parse()

	if !(*scale > 0) || math.IsInf(*scale, 0) { // NaN fails the comparison too
		refuse("invalid -scale %v (want a positive number)", *scale)
	}
	if *attempts < 0 {
		refuse("invalid -attempts %d (want 0 for the per-structure defaults or a positive budget)", *attempts)
	}
	if *boundedReads < 0 || *boundedWrites < 0 {
		refuse("invalid -bounded-reads %d / -bounded-writes %d (want 0 for the sim default or a positive budget)", *boundedReads, *boundedWrites)
	}
	if (*boundedReads > 0 || *boundedWrites > 0) && *model != sim.ModelBoundedSet {
		refuse("-bounded-reads and -bounded-writes need -model %s", sim.ModelBoundedSet)
	}

	if *model != "" || *nbtc {
		switch *model {
		case "", sim.ModelRTM, sim.ModelBoundedSet:
		default:
			refuse("unknown model %q (want %q or %q)", *model, sim.ModelRTM, sim.ModelBoundedSet)
		}
		bench.SetHardware(*model, *boundedReads, *boundedWrites, *nbtc)
	}

	if *policy != "" || *attempts > 0 {
		var p speculate.Policy
		switch *policy {
		case "", "fixed":
			p = speculate.Fixed(*attempts)
		case "adaptive":
			p = speculate.Adaptive()
			p.Attempts = *attempts
		default:
			refuse("unknown policy %q (want adaptive or fixed)", *policy)
		}
		bench.SetPolicy(p)
	}

	runners := map[string]func(float64) bench.Figure{
		"2a":  bench.Fig2a,
		"2b":  bench.Fig2b,
		"3a":  func(s float64) bench.Figure { return bench.Fig3(0, s) },
		"3b":  func(s float64) bench.Figure { return bench.Fig3(34, s) },
		"3c":  func(s float64) bench.Figure { return bench.Fig3(100, s) },
		"4a":  func(s float64) bench.Figure { return bench.Fig4(0, s) },
		"4b":  func(s float64) bench.Figure { return bench.Fig4(80, s) },
		"4c":  func(s float64) bench.Figure { return bench.Fig4(100, s) },
		"5a":  bench.Fig5a,
		"5b":  bench.Fig5b,
		"5c":  bench.Fig5c,
		"a1":  bench.AblationMindicatorRetries,
		"a2":  bench.AblationMoundRetries,
		"a3":  bench.AblationBSTBudgets,
		"a4":  bench.AblationCapacity,
		"a5":  bench.AblationSMT,
		"a6":  bench.AblationAdaptivePolicy,
		"a8":  bench.AblationComposedMoveSim,
		"a9":  bench.AblationSemantic,
		"a10": bench.AblationThreePath,
		"a12": bench.AblationFrontier,
		"e1":  func(s float64) bench.Figure { return bench.ExtList(34, s) },
		"e2":  bench.ExtQueue,
	}
	// "all" covers the paper figures; ablations run via -ablations or by ID.
	order := []string{"2a", "2b", "3a", "3b", "3c", "4a", "4b", "4c", "5a", "5b", "5c"}

	var selected []string
	if *figure == "all" {
		selected = order
	} else {
		for _, id := range strings.Split(*figure, ",") {
			if _, ok := runners[id]; !ok {
				known := make([]string, 0, len(runners))
				for k := range runners {
					known = append(known, k)
				}
				sort.Strings(known)
				refuse("unknown figure %q (want all or one of %v)", id, known)
			}
			selected = append(selected, id)
		}
	}

	for _, id := range selected {
		f := runners[id](*scale)
		if *csv {
			fmt.Print(bench.CSV(f))
		} else {
			fmt.Println(bench.Render(f))
		}
	}
	if *ablations {
		for _, f := range bench.Ablations(*scale) {
			if *csv {
				fmt.Print(bench.CSV(f))
			} else {
				fmt.Println(bench.Render(f))
			}
		}
	}
	if *extensions {
		for _, f := range bench.Extensions(*scale) {
			if *csv {
				fmt.Print(bench.CSV(f))
			} else {
				fmt.Println(bench.Render(f))
			}
		}
	}
}

// refuse reports an unusable argument on one line of stderr and exits 2,
// before anything is printed to stdout.
func refuse(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
