package server

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCrossShardConservation hammers the full op surface — single-key and
// multi-key writes, cross-structure moves, queue transfers, PQ scheduling —
// across shards through the HTTP API, then verifies total element counts
// against a sequential model built from the responses. Every composed
// operation reports exactly what it did (Changed/Moved/Found), so summing
// those results must reproduce the final state: for the sets,
// seeded + puts − dels ± pq exchanges; for the queues, enqueues − dequeues;
// for the PQs, pushes + movetopq − movemin − popmins. Any torn composed op,
// double-applied batch entry, or mis-routed key breaks one of the three.
func TestCrossShardConservation(t *testing.T) {
	const (
		shards  = 3
		keys    = 96
		workers = 6
		opsPer  = 120
	)
	_, ts := newTestServer(t, Config{Shards: shards, MaxBatch: 16})

	// Seed every key into the hot sets via multi-key puts.
	var seeded int64
	for lo := 0; lo < keys; lo += 16 {
		hi := lo + 16
		if hi > keys {
			hi = keys
		}
		ks := make([]int64, 0, 16)
		for k := lo; k < hi; k++ {
			ks = append(ks, int64(k))
		}
		resp, code := doOp(t, ts, Request{Op: OpPut, Keys: ks})
		if code != 200 {
			t.Fatalf("seed put: status %d", code)
		}
		seeded += int64(resp.Moved)
	}
	if seeded != keys {
		t.Fatalf("seeded %d keys, want %d", seeded, keys)
	}

	// Deltas relative to the seed, accumulated from op results.
	var setDelta, qDelta, pqDelta atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := uint64(g)*0x9E3779B97F4A7C15 + 12345
			next := func() uint64 {
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				return rnd
			}
			for i := 0; i < opsPer; i++ {
				x := next()
				k := int64(x >> 16 % keys)
				pin := int(x >> 8 % shards)
				fwd := x&(1<<40) != 0
				switch x % 10 {
				case 0, 1: // single-key move, both directions
					req := Request{Op: OpMove, Key: k}
					if !fwd {
						req.Src, req.Dst = DefaultSpill, DefaultSet
					}
					doOp(t, ts, req)
				case 2: // batched moveall
					ks := []int64{k, (k + 17) % keys, (k + 41) % keys}
					req := Request{Op: OpMoveAll, Keys: ks}
					if !fwd {
						req.Src, req.Dst = DefaultSpill, DefaultSet
					}
					doOp(t, ts, req)
				case 3: // single-key put
					resp, _ := doOp(t, ts, Request{Op: OpPut, Key: k})
					if resp.Changed {
						setDelta.Add(1)
					}
				case 4: // multi-key put (one publication per shard)
					ks := []int64{k, (k + 5) % keys, (k + 23) % keys}
					resp, _ := doOp(t, ts, Request{Op: OpPut, Keys: ks})
					setDelta.Add(int64(resp.Moved))
				case 5: // single-key del
					resp, _ := doOp(t, ts, Request{Op: OpDel, Key: k})
					if resp.Changed {
						setDelta.Add(-1)
					}
				case 6: // enqueue / dequeue on a pinned shard
					if fwd {
						resp, _ := doOp(t, ts, Request{Op: OpEnqueue, Value: k, Shard: &pin})
						if resp.OK {
							qDelta.Add(1)
						}
					} else {
						st := DefaultQueue
						if x&(1<<41) != 0 {
							st = "egress"
						}
						resp, _ := doOp(t, ts, Request{Op: OpDequeue, Struct: st, Shard: &pin})
						if resp.Found {
							qDelta.Add(-1)
						}
					}
				case 7: // transfer conserves the pair
					doOp(t, ts, Request{Op: OpTransfer, N: 2, Shard: &pin})
				case 8: // push / popmin
					if fwd {
						resp, _ := doOp(t, ts, Request{Op: OpPush, Value: k, Shard: &pin})
						if resp.OK {
							pqDelta.Add(1)
						}
					} else {
						resp, _ := doOp(t, ts, Request{Op: OpPopMin, Shard: &pin})
						if resp.Found {
							pqDelta.Add(-1)
						}
					}
				case 9: // pq <-> set exchanges
					if fwd {
						resp, _ := doOp(t, ts, Request{Op: OpMoveToPQ, Key: k, Shard: &pin})
						if resp.Moved == 1 {
							setDelta.Add(-1)
							pqDelta.Add(1)
						}
					} else {
						resp, _ := doOp(t, ts, Request{Op: OpMoveMin, Shard: &pin})
						if resp.Moved == 1 {
							pqDelta.Add(-1)
							setDelta.Add(1)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiescent count: scan every shard for every key on both sets. Keys
	// normally live on their hash-owner shard, but movemin lands popped
	// values on the pinned shard's cold set, so the scan covers the full
	// (shard × key) plane.
	var total int64
	for sh := 0; sh < shards; sh++ {
		pin := sh
		for k := int64(0); k < keys; k++ {
			for _, st := range []string{DefaultSet, DefaultSpill} {
				resp, code := doOp(t, ts, Request{Op: OpGet, Struct: st, Key: k, Shard: &pin})
				if code != 200 {
					t.Fatalf("scan get: status %d", code)
				}
				if resp.Found {
					total++
				}
			}
		}
	}
	wantSets := seeded + setDelta.Load()
	if total != wantSets {
		t.Errorf("set conservation: counted %d elements, model says %d (seed %d, delta %d)",
			total, wantSets, seeded, setDelta.Load())
	}

	// Drain the queues: remaining values must equal the enqueue/dequeue
	// balance (transfers conserve).
	var qRemaining int64
	for sh := 0; sh < shards; sh++ {
		pin := sh
		for _, st := range []string{DefaultQueue, "egress"} {
			for {
				resp, _ := doOp(t, ts, Request{Op: OpDequeue, Struct: st, Shard: &pin})
				if !resp.Found {
					break
				}
				qRemaining++
			}
		}
	}
	if qRemaining != qDelta.Load() {
		t.Errorf("queue conservation: drained %d values, model says %d", qRemaining, qDelta.Load())
	}

	// Drain the PQs likewise.
	var pqRemaining int64
	for sh := 0; sh < shards; sh++ {
		pin := sh
		for {
			resp, _ := doOp(t, ts, Request{Op: OpPopMin, Shard: &pin})
			if !resp.Found {
				break
			}
			pqRemaining++
		}
	}
	if pqRemaining != pqDelta.Load() {
		t.Errorf("pq conservation: drained %d values, model says %d", pqRemaining, pqDelta.Load())
	}
}
