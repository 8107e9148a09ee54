// Package bench regenerates the paper's evaluation (Figures 2-5) on the
// simulated machine of internal/sim, using the three microbenchmarks of
// §4.1:
//
//   - setbench: each thread repeatedly invokes a lookup or an update (equal
//     chance insert or remove) with a random key in range;
//   - pqbench: each thread repeatedly invokes a push with a random value or
//     a pop;
//   - mbench: each thread repeatedly invokes an arrive with a random value
//     followed by a depart.
//
// Every data point runs the workload on a freshly built machine for a fixed
// simulated duration, discarding a warmup fifth, and reports throughput in
// operations per simulated millisecond at the machine's clock rate — the
// paper's y-axis. A structure whose prefilled memory does not depend on the
// thread count (Figure 4's hash tables) is built once per series, and each
// point starts from a clone of it (sweepImage) in the state a fresh build
// would leave. Runs are deterministic: the same build always produces the
// same numbers.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Point is one measured coordinate of a series.
type Point struct {
	Threads    int
	Throughput float64 // operations per simulated millisecond
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced table/figure of the paper, or an ablation table.
type Figure struct {
	ID     string
	Title  string
	XLabel string // defaults to "threads"
	YLabel string
	Series []Series
}

// MaxThreads matches the paper's testbed (4 cores × 2 SMT).
const MaxThreads = 8

// buildFunc constructs the structure under test on a fresh machine
// (prefilling via the setup thread) and returns the per-operation body.
type buildFunc func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread)

// measure runs one data point: the workload on the given thread count for
// `window` simulated cycles after a window/4 warmup, on the paper's testbed
// (sim.DefaultConfig).
func measure(threads int, window uint64, build buildFunc) float64 {
	return measureCfg(sim.DefaultConfig(threads), window, build)
}

// measureCfg is measure with an explicit machine configuration (ablations).
func measureCfg(cfg sim.Config, window uint64, build buildFunc) float64 {
	m := sim.New(cfg)
	return measureOn(m, window, build(m, m.Thread(0)))
}

// measureOn runs the workload op on every thread of m, built and filled.
func measureOn(m *sim.Machine, window uint64, op func(t *sim.Thread)) float64 {
	warm := window / 4
	deadline := warm + window
	var counted [16]uint64
	m.Run(func(t *sim.Thread) {
		for {
			op(t)
			now := t.Now()
			if now >= deadline {
				return
			}
			if now >= warm {
				counted[t.ID()]++
			}
		}
	})
	var total uint64
	for _, c := range counted {
		total += c
	}
	ms := float64(window) / m.Config().CyclesPerMs
	return float64(total) / ms
}

// sweep measures a series across 1..MaxThreads.
func sweep(name string, window uint64, build buildFunc) Series {
	s := Series{Name: name}
	for n := 1; n <= MaxThreads; n++ {
		s.Points = append(s.Points, Point{Threads: n, Throughput: measure(n, window, build)})
	}
	return s
}

// imageFunc fills a structure whose memory image is the same at every thread
// count on the set-up thread of a one-thread machine, and returns, for a
// thread count, the per-operation body on a clone of the structure for that
// many threads (simds.SimHash.Clone).
type imageFunc func(setup *sim.Thread) func(threads int) func(t *sim.Thread)

// sweepImage is sweep for such a structure: it fills one image and starts
// every point from a clone of its machine (sim.Machine.Clone), which copies
// only the pages the point touches, into the previous point's buffers. The
// image is dropped when the sweep ends.
func sweepImage(name string, window uint64, fill imageFunc) Series {
	img := sim.New(sim.DefaultConfig(1))
	point := fill(img.Thread(0))
	s := Series{Name: name}
	var m *sim.Machine
	for n := 1; n <= MaxThreads; n++ {
		m = img.Clone(sim.DefaultConfig(n), m)
		s.Points = append(s.Points, Point{Threads: n, Throughput: measureOn(m, window, point(n))})
	}
	return s
}

// Improvement converts a variant series into percent improvement over a
// baseline series, point by point (the y-axis of Figure 5).
func Improvement(variant, baseline Series) Series {
	out := Series{Name: variant.Name}
	for i, p := range variant.Points {
		b := baseline.Points[i].Throughput
		out.Points = append(out.Points, Point{
			Threads:    p.Threads,
			Throughput: 100 * (p.Throughput - b) / b,
		})
	}
	return out
}

// Render formats a figure as an aligned text table.
func Render(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s   [%s]\n", f.ID, f.Title, f.YLabel)
	x := f.XLabel
	if x == "" {
		x = "threads"
	}
	fmt.Fprintf(&b, "%-22s", x)
	for _, p := range f.Series[0].Points {
		fmt.Fprintf(&b, "%10d", p.Threads)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-22s", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%10.1f", p.Throughput)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV formats a figure as comma-separated values.
func CSV(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "figure,series,threads,value\n")
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%s,%d,%.3f\n", f.ID, s.Name, p.Threads, p.Throughput)
		}
	}
	return b.String()
}
