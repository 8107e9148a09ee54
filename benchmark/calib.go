package main

import (
	"runtime"
	"sync"
	"time"
)

// The hosts this benchmark runs on are shared: the speed of both cores
// changes by tens of percent from second to second and by a factor of two
// between one 20-second run and the next, which no length of window or
// choice of percentile averages out. So every timed number is expressed on
// the clock of a reference host: a fixed computation, the calibration loop,
// runs in short slices next to the measured work, and the time the work took
// is scaled by how fast the loop ran beside it.
//
//	speed        = calibration units per second here ÷ refUnitsPerSec
//	reference s  = host s × speed
//
// A host that runs the loop at refUnitsPerSec reads the same on both
// clocks. A change to the repository cannot move the loop (it is the
// benchmark's own code and touches nothing else), so a metric on the
// reference clock moves only when the measured work does.

// refUnitsPerSec is the calibration loop's rate on the reference host: one
// goroutine of the host BENCH_0011.json was taken on, in a quiet second.
const refUnitsPerSec = 2.0e6

// calibrator is one goroutine's calibration loop. What slows a shared host
// is mostly a neighbour on the core's other hardware thread and time slices
// lost to other tenants, which cost code with many instructions in flight
// more than a single dependent chain. So the loop keeps four independent
// multiply chains going, loads and stores spread over a 256 KiB table and
// one unpredictable branch per step: measured against the modeled machine's
// figure generation, a loop of that shape slows down with the work (a single
// dependent chain slowed down about half as much as the work did).
type calibrator struct {
	x   [4]uint64
	y   uint64
	tab [1 << 15]uint64
}

const calibUnitSteps = 64

// unit runs one unit of the loop (well under a microsecond).
func (k *calibrator) unit() {
	const mul, inc, mask = 6364136223846793005, 1442695040888963407, 1<<15 - 1
	x0, x1, x2, x3, y := k.x[0], k.x[1], k.x[2], k.x[3], k.y
	for i := 0; i < calibUnitSteps; i++ {
		x0 = x0*mul + inc
		x1 = x1*mul + inc
		x2 = x2*mul + inc
		x3 = x3*mul + inc
		k.tab[x0>>30&mask] += x1
		y += k.tab[x2>>30&mask]
		if x3>>63 == 0 {
			y ^= x0
		} else {
			y += x2 >> 7
		}
	}
	k.x, k.y = [4]uint64{x0, x1, x2, x3}, y
}

// lostSlice is the gap between two clock reads of the loop, four units or a
// few microseconds apart, from which on the loop counts as not having run at
// all meanwhile: its core was given to another tenant or another thread.
const lostSlice = 50 * time.Microsecond

// spin runs units from from until the clock passes until. It returns how many
// ran, when it stopped, and how much of that time was lost in slices the loop
// did not run in. Units over the whole time give the speed work gets done at;
// units over the time not lost give the speed instructions execute at, which
// is what a latency shorter than any lost slice scales with.
func (k *calibrator) spin(from, until time.Time) (units int, lost time.Duration, stopped time.Time) {
	for last := from; ; {
		for i := 0; i < 4; i++ {
			k.unit()
		}
		units += 4
		now := time.Now()
		if gap := now.Sub(last); gap >= lostSlice {
			lost += gap
		}
		if last = now; !now.Before(until) {
			return units, lost, now
		}
	}
}

// speedOf turns units run in d into a speed relative to the reference host.
func speedOf(units int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(units) / d.Seconds() / refUnitsPerSec
}

// sample runs the loop on the calling goroutine for d and returns the speed.
func (k *calibrator) sample(d time.Duration) float64 {
	start := time.Now()
	units, _, end := k.spin(start, start.Add(d))
	return speedOf(units, end.Sub(start))
}

// measureSpeed samples the speed for d on as many goroutines as the load
// uses (fewer if there are fewer Ps), at once: the bracket around work that
// cannot be sliced, such as a set-up.
func measureSpeed(d time.Duration) float64 {
	n := min(clients, runtime.GOMAXPROCS(0))
	speeds := make([]float64, n)
	var wg sync.WaitGroup
	for c := range speeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			speeds[c] = new(calibrator).sample(d)
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, s := range speeds {
		sum += s
	}
	return sum / float64(n)
}

// sideCalibrator keeps the reference clock for work that cannot be sliced
// from inside (a figure of the modeled machine). It is for a process with
// one P: every calibPeriod its goroutine takes the P for calibSlice, which
// pauses the work, so the host's speed is sampled between stretches of work
// as it is in the client loops. The clock advances only while the work
// runs: each stretch counts at the speed of the slice that ends it.
type sideCalibrator struct {
	mu   sync.Mutex
	ref  float64   // reference seconds of work up to last
	last time.Time // end of the latest slice
	spd  float64   // the latest slice's speed
	n    int       // slices run
	stop chan struct{}
	done chan struct{}
}

func startSideCalibrator() *sideCalibrator {
	s := &sideCalibrator{stop: make(chan struct{}), done: make(chan struct{})}
	var k calibrator
	s.spd = k.sample(calibSlice)
	s.last = time.Now()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(calibPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				start := time.Now()
				spd := k.sample(calibSlice)
				s.mu.Lock()
				s.ref += start.Sub(s.last).Seconds() * spd
				s.last, s.spd = time.Now(), spd
				s.n++
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// now reads the reference clock: the stretch since the latest slice counts
// at that slice's speed.
func (s *sideCalibrator) now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ref + time.Since(s.last).Seconds()*s.spd
}

// close stops the calibrator and returns how many slices it ran.
func (s *sideCalibrator) close() int {
	close(s.stop)
	<-s.done
	return s.n
}
