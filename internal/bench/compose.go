package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bst"
	"repro/internal/list"
	"repro/internal/mound"
	"repro/internal/txn"
)

// AblationComposedMove (A7) measures the transactional composition layer on
// a wall clock: concurrent cross-set Moves between two real BSTs, completed
// three different ways.
//
//   - "Composed (HTM fast path)": ample transactional capacity, so nearly
//     every Move commits inside one prefix transaction spanning both trees.
//   - "Composed (MultiCAS fallback)": capacity forced to zero, so every Move
//     runs the capture pass and publishes its write set through the N-word
//     MultiCAS — the lock-free progress floor of the composition layer.
//   - "Two-mutex locking": the composition baseline NBTC argues against —
//     each structure guarded by a mutex, a Move holding both. Coarse and
//     blocking, but with no capture, validation, or descriptor traffic.
//
// The expected shape mirrors the paper's single-structure claim lifted to
// composition: the HTM fast path beats the MultiCAS fallback everywhere
// (that gap is the acceleration), and the fallback's cost is the price of
// keeping lock-freedom rather than of the abstraction itself. Wall-clock
// numbers vary run to run, so like A6 this is only emitted under -ablations.
func AblationComposedMove(scale float64) Figure {
	opsPer := int(10000 * scale)
	if opsPer < 500 {
		opsPer = 500
	}
	f := Figure{
		ID:     "Ablation A7",
		Title:  "Composed cross-set Move: HTM fast path vs MultiCAS fallback vs locking (wall clock)",
		YLabel: "ops/ms",
	}
	modes := []struct {
		name string
		mode composeMode
	}{
		{"Composed (HTM fast path)", composeFast},
		{"Composed (MultiCAS fallback)", composeFallback},
		{"Two-mutex locking", composeLocked},
	}
	for _, m := range modes {
		s := Series{Name: m.name}
		for _, threads := range []int{2, 4, 8} {
			tput := measureComposedMove(threads, opsPer, m.mode)
			s.Points = append(s.Points, Point{Threads: threads, Throughput: tput})
		}
		f.Series = append(f.Series, s)
	}
	// Matrix arms: the same experiment over the corners the adapter contract
	// opened — a Harris-list pair, and a mound feeding a list set through
	// MoveMin/MoveToPQ (the arm where raw and composed operations meet:
	// every committed pop's moundify runs the mound's own CAS/DCAS against
	// in-flight composed publications).
	listArm := Series{Name: "Composed list pair (HTM fast path)"}
	for _, threads := range []int{2, 4, 8} {
		tput := measureComposedOps(threads, opsPer, buildListPairMove())
		listArm.Points = append(listArm.Points, Point{Threads: threads, Throughput: tput})
	}
	f.Series = append(f.Series, listArm)
	moundArm := Series{Name: "Composed mound+list MoveMin/MoveToPQ (HTM fast path)"}
	for _, threads := range []int{2, 4, 8} {
		tput := measureComposedOps(threads, opsPer, buildMoundListMove())
		moundArm.Points = append(moundArm.Points, Point{Threads: threads, Throughput: tput})
	}
	f.Series = append(f.Series, moundArm)
	// Batched sweep: MoveAll amortizes one prefix transaction (or one N-word
	// MultiCAS) across the batch, so throughput is reported per key-move
	// attempt for comparability with the one-key arms.
	for _, k := range []int{4, 16} {
		s := Series{Name: fmt.Sprintf("Composed batched MoveAll (k=%d)", k)}
		for _, threads := range []int{2, 4, 8} {
			tput := measureComposedOps(threads, opsPer, buildBatchedMove(k))
			s.Points = append(s.Points, Point{Threads: threads, Throughput: tput})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// buildListPairMove sets up a Harris-list pair and returns the per-op move
// closure plus the keys-per-op weight (1).
func buildListPairMove() func() (func(rnd uint64), int) {
	return func() (func(rnd uint64), int) {
		const keyRange = 256
		m := txn.New(0).WithPolicy(realPolicy())
		src := list.NewPTOIn(m.Domain(), 0).WithPolicy(realPolicy())
		dst := list.NewPTOIn(m.Domain(), 0).WithPolicy(realPolicy())
		for i := 0; i < keyRange/2; i++ {
			k := int64(splitmixRand(uint64(i))%keyRange) + 1
			m.Atomic(func(c *txn.Ctx) { src.TxInsert(c, k) })
		}
		return func(rnd uint64) {
			k := int64(rnd%keyRange) + 1
			if rnd&(1<<40) != 0 {
				txn.Move(m, src, dst, k)
			} else {
				txn.Move(m, dst, src, k)
			}
		}, 1
	}
}

// buildMoundListMove sets up a mound feeding a list set: MoveMin drains the
// mound's minimum into the set, MoveToPQ sends random set keys back.
func buildMoundListMove() func() (func(rnd uint64), int) {
	return func() (func(rnd uint64), int) {
		const keyRange = 256
		m := txn.New(0).WithPolicy(realPolicy())
		pq := mound.NewPTOIn(m.Domain(), 10, 0).WithPolicy(realPolicy())
		set := list.NewPTOIn(m.Domain(), 0).WithPolicy(realPolicy())
		for i := 0; i < keyRange/2; i++ {
			v := int64(splitmixRand(uint64(i))%keyRange) + 1
			m.Atomic(func(c *txn.Ctx) { pq.TxPush(c, v) })
		}
		return func(rnd uint64) {
			if rnd&(1<<40) != 0 {
				txn.MoveMin(m, pq, set)
			} else {
				txn.MoveToPQ(m, set, pq, int64(rnd%keyRange)+1)
			}
		}, 1
	}
}

// buildBatchedMove sets up a BST pair moved between in batches of k keys per
// composed operation; the weight k keeps the reported throughput in key-move
// attempts per millisecond.
func buildBatchedMove(k int) func() (func(rnd uint64), int) {
	return func() (func(rnd uint64), int) {
		const keyRange = 256
		m := txn.New(0).WithPolicy(realPolicy())
		src := bst.NewPTOIn(m.Domain(), -1, -1).WithPolicy(realPolicy())
		dst := bst.NewPTOIn(m.Domain(), -1, -1).WithPolicy(realPolicy())
		for i := 0; i < keyRange/2; i++ {
			key := int64(splitmixRand(uint64(i)) % keyRange)
			m.Atomic(func(c *txn.Ctx) { src.TxInsert(c, key) })
		}
		return func(rnd uint64) {
			keys := make([]int64, k)
			for i := range keys {
				keys[i] = int64(splitmixRand(rnd+uint64(i)) % keyRange)
			}
			if rnd&(1<<40) != 0 {
				txn.MoveAll(m, src, dst, keys...)
			} else {
				txn.MoveAll(m, dst, src, keys...)
			}
		}, k
	}
}

// measureComposedOps is the shared wall-clock scaffold for the matrix arms:
// build yields a per-op closure and the number of key-move attempts each op
// represents; the returned figure is attempts/ms.
func measureComposedOps(threads, opsPer int, build func() (func(rnd uint64), int)) float64 {
	move, weight := build()
	iters := opsPer / weight
	if iters < 1 {
		iters = 1
	}
	var wg sync.WaitGroup
	var ready, start sync.WaitGroup
	ready.Add(threads)
	start.Add(1)
	var total atomic.Int64
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := uint64(g)*0x9E3779B97F4A7C15 + 1
			ready.Done()
			start.Wait()
			for i := 0; i < iters; i++ {
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				move(rnd)
			}
			total.Add(int64(iters * weight))
		}(g)
	}
	ready.Wait()
	begin := time.Now()
	start.Done()
	wg.Wait()
	elapsed := time.Since(begin)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(total.Load()) / (float64(elapsed.Nanoseconds()) / 1e6)
}

type composeMode int

const (
	composeFast composeMode = iota
	composeFallback
	composeLocked
	// composeNBTC is the modeled substrate's fourth arm: forced fallback
	// with NBTC commit-time batch publication (simtxn.WithNBTC). Only
	// buildComposedMoveSim understands it.
	composeNBTC
)

// measureComposedMove runs opsPer random-direction Moves per thread between
// two trees prefilled with half the key range each, returning ops/ms.
func measureComposedMove(threads, opsPer int, mode composeMode) float64 {
	const keyRange = 256
	var move func(rnd uint64)
	switch mode {
	case composeLocked:
		src, dst := bst.New(), bst.New()
		// One mutex per structure, always acquired in the same global order
		// (src's before dst's) regardless of Move direction, so the baseline
		// is deadlock-free without an ordering protocol.
		var muA, muB sync.Mutex
		lockedMove := func(from, to *bst.Tree, k int64) {
			muA.Lock()
			muB.Lock()
			defer muB.Unlock()
			defer muA.Unlock()
			if to.Contains(k) || !from.Remove(k) {
				return
			}
			to.Insert(k)
		}
		for i := 0; i < keyRange/2; i++ {
			src.Insert(int64(splitmixRand(uint64(i)) % keyRange))
		}
		move = func(rnd uint64) {
			k := int64(rnd % keyRange)
			if rnd&(1<<40) != 0 {
				lockedMove(src, dst, k)
			} else {
				lockedMove(dst, src, k)
			}
		}
	default:
		m := txn.New(0).WithPolicy(realPolicy())
		if mode == composeFallback {
			m.Domain().SetCapacity(-1, -1)
		}
		src := bst.NewPTOIn(m.Domain(), -1, -1).WithPolicy(realPolicy())
		dst := bst.NewPTOIn(m.Domain(), -1, -1).WithPolicy(realPolicy())
		for i := 0; i < keyRange/2; i++ {
			k := int64(splitmixRand(uint64(i)) % keyRange)
			m.Atomic(func(c *txn.Ctx) { src.TxInsert(c, k) })
		}
		move = func(rnd uint64) {
			k := int64(rnd % keyRange)
			if rnd&(1<<40) != 0 {
				txn.Move(m, src, dst, k)
			} else {
				txn.Move(m, dst, src, k)
			}
		}
	}

	var wg sync.WaitGroup
	var ready, start sync.WaitGroup
	ready.Add(threads)
	start.Add(1)
	var total atomic.Int64
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := uint64(g)*0x9E3779B97F4A7C15 + 1
			ready.Done()
			start.Wait()
			for i := 0; i < opsPer; i++ {
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				move(rnd)
			}
			total.Add(int64(opsPer))
		}(g)
	}
	ready.Wait()
	begin := time.Now()
	start.Done()
	wg.Wait()
	elapsed := time.Since(begin)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(total.Load()) / (float64(elapsed.Nanoseconds()) / 1e6)
}
