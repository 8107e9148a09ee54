package server

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCrossShardConservation hammers the full op surface — single-key and
// multi-key writes, cross-structure moves, queue transfers, PQ scheduling —
// across shards through the HTTP API, then verifies total element counts
// against a sequential model built from the responses. Every reply must be a
// 200: the server refuses nothing for load. Every composed operation reports
// exactly what it did (Changed/Moved/Found), so summing those results must
// reproduce the final state: for the sets, seeded + puts − dels ± pq
// exchanges; for the queues, enqueues − dequeues; for the PQs, pushes +
// movetopq − movemin − popmins. Any torn composed op, double-applied batch
// entry, or mis-routed key breaks one of the three. It runs on the fast path
// and on a server whose capacity forces every composed operation down the
// MultiCAS fallback.
func TestCrossShardConservation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"fast", Config{Shards: conservationShards, MaxBatch: 16}},
		{"forced fallback", Config{Shards: conservationShards, MaxBatch: 16, ReadCap: -1, WriteCap: -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, ts := newTestServer(t, c.cfg)
			conserve(t, ts)
			var fast, fallback uint64
			for _, sh := range srv.Stats().Shards {
				fast += sh.FastCommits
				fallback += sh.FallbackCommits
			}
			if c.cfg.ReadCap < 0 && (fast != 0 || fallback == 0) {
				t.Errorf("forced fallback: %d fast commits, %d fallback commits", fast, fallback)
			}
			if c.cfg.ReadCap == 0 && fast == 0 {
				t.Error("no composed operation committed on the fast path")
			}
		})
	}
}

// conservationShards is TestCrossShardConservation's shard count.
const conservationShards = 3

// conserve is TestCrossShardConservation's run against one server.
func conserve(t *testing.T, ts *httptest.Server) {
	const (
		keys    = 96
		workers = 6
		opsPer  = 120
	)

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

	// Every reply is a 200; a refusal is an error, not a skipped op.
	do := func(req Request) Response {
		resp, code := doOp(t, ts, req)
		if code != http.StatusOK {
			t.Errorf("%+v: status %d: %s", req, code, resp.Err)
		}
		return resp
	}
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
				pin := int(x >> 8 % conservationShards)
				fwd := x&(1<<40) != 0
				switch x % 10 {
				case 0, 1: // single-key move, both directions
					req := Request{Op: OpMove, Key: k}
					if !fwd {
						req.Src, req.Dst = DefaultSpill, DefaultSet
					}
					do(req)
				case 2: // batched moveall
					ks := []int64{k, (k + 17) % keys, (k + 41) % keys}
					req := Request{Op: OpMoveAll, Keys: ks}
					if !fwd {
						req.Src, req.Dst = DefaultSpill, DefaultSet
					}
					do(req)
				case 3: // single-key put
					resp := do(Request{Op: OpPut, Key: k})
					if resp.Changed {
						setDelta.Add(1)
					}
				case 4: // multi-key put (one publication per shard)
					ks := []int64{k, (k + 5) % keys, (k + 23) % keys}
					resp := do(Request{Op: OpPut, Keys: ks})
					setDelta.Add(int64(resp.Moved))
				case 5: // single-key del
					resp := do(Request{Op: OpDel, Key: k})
					if resp.Changed {
						setDelta.Add(-1)
					}
				case 6: // enqueue / dequeue on a pinned shard
					if fwd {
						resp := do(Request{Op: OpEnqueue, Value: k, Shard: &pin})
						if resp.OK {
							qDelta.Add(1)
						}
					} else {
						st := DefaultQueue
						if x&(1<<41) != 0 {
							st = "egress"
						}
						resp := do(Request{Op: OpDequeue, Struct: st, Shard: &pin})
						if resp.Found {
							qDelta.Add(-1)
						}
					}
				case 7: // transfer conserves the pair
					do(Request{Op: OpTransfer, N: 2, Shard: &pin})
				case 8: // push / popmin
					if fwd {
						resp := do(Request{Op: OpPush, Value: k, Shard: &pin})
						if resp.OK {
							pqDelta.Add(1)
						}
					} else {
						resp := do(Request{Op: OpPopMin, Shard: &pin})
						if resp.Found {
							pqDelta.Add(-1)
						}
					}
				case 9: // pq <-> set exchanges
					if fwd {
						resp := do(Request{Op: OpMoveToPQ, Key: k, Shard: &pin})
						if resp.Moved == 1 {
							setDelta.Add(-1)
							pqDelta.Add(1)
						}
					} else {
						resp := do(Request{Op: OpMoveMin, Shard: &pin})
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

	// Quiescent count: scan every shard for every key on both sets. A key
	// need not live on its owning shard — movemin lands a popped value on
	// its own shard's cold set, and a pinned movetopq takes the key from the
	// pinned shard — so the scan covers the full (shard × key) plane.
	var total int64
	for sh := 0; sh < conservationShards; sh++ {
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
	for sh := 0; sh < conservationShards; sh++ {
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
	for sh := 0; sh < conservationShards; sh++ {
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
