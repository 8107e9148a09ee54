// Command ptobench regenerates the paper's evaluation figures on the
// simulated machine and prints them as text tables (optionally CSV).
//
// Usage:
//
//	ptobench [-figure all|2a|2b|3a|3b|3c|4a|4b|4c|5a|5b|5c|a1..a6|a8..a10|a12|e1|e2] [-scale 1.0] [-csv]
//	         [-ablations] [-extensions]
//
// -figure also accepts individual ablation (a1..a6, a8..a10, a12) and
// extension (e1, e2) IDs, comma-separated; -ablations / -extensions run each
// full set. Each experiment fixes its own hardware and retry policy, so no
// flag but -scale changes a modeled number.
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
// occupied-fallback adversary, on the modeled machine only, deterministic.
// A12 is the hardware frontier: BoundedSet set-size
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
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate (paper figures, ablations a1..a6, a8..a10 and a12, extensions e1 e2)")
	scale := flag.Float64("scale", 1.0, "measurement window scale factor")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	ablations := flag.Bool("ablations", false, "also run the ablation tables (A1-A6, A8-A10, A12; A6 and A9 are wall-clock)")
	extensions := flag.Bool("extensions", false, "also run the extension tables (E1-E2)")
	flag.Parse()

	if !(*scale > 0) || math.IsInf(*scale, 0) { // NaN fails the comparison too
		refuse("invalid -scale %v (want a positive number)", *scale)
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
