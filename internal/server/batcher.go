package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/txn"
)

// batcher is the shard's epoch-batched commit pipeline, in the style of
// Silo's group commit: single-key set writes arriving within one epoch
// window coalesce into a single composed publication — one prefix
// transaction on the fast path, one N-word MultiCAS in the fallback — so k
// concurrent puts pay one commit instead of k. This is MoveAll's
// amortization (one publication per k keys, pinned by
// bench.BatchedMoveAmortization) lifted onto the request path; the
// deterministic twin test in batcher_test.go pins the same claim at this
// layer with a fake clock.
//
// The epoch advances on a ticker (the window), and early whenever the
// pending queue reaches maxBatch — so a burst never waits out the window
// and a batch never exceeds the size the substrate was tuned for. Requests
// block on a per-op reply channel until the batch holding them commits;
// because txn.Atomic retries until it commits, every submitted op
// eventually resolves, and close() drains whatever is pending before the
// goroutine exits (the graceful-shutdown guarantee).
type batcher struct {
	sh       *shard
	maxBatch int // Config.MaxBatch: the cap on one publication's op count

	mu      sync.Mutex
	pending []batchOp
	closed  bool // no further submits; pending is drained by close

	tick   <-chan time.Time // epoch source: ticker.C, or injected by tests
	ticker *time.Ticker     // nil when tick was injected
	kick   chan struct{}    // early flush: pending reached maxBatch
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	// Stats: how many batches committed, how many ops rode them, and the
	// batch-size distribution (the width histogram the composition layer
	// already uses for MCAS footprints).
	batches    atomic.Uint64
	batchedOps atomic.Uint64
	sizes      telemetry.WidthHistogram
}

// batchOp is one queued single-key write. done is buffered: the flusher
// never blocks on a slow reader.
type batchOp struct {
	insert bool // true: TxInsert; false: TxRemove
	set    txn.Set
	key    int64
	done   chan bool
}

// newBatcher starts the shard's epoch loop. window is the epoch length;
// maxBatch caps one publication's op count. tick, when non-nil, replaces
// the wall-clock ticker — the fake clock of the deterministic tests.
func newBatcher(sh *shard, window time.Duration, maxBatch int, tick <-chan time.Time) *batcher {
	b := &batcher{
		sh:       sh,
		maxBatch: maxBatch,
		tick:     tick,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if b.tick == nil {
		b.ticker = time.NewTicker(window)
		b.tick = b.ticker.C
	}
	go b.run()
	return b
}

// submit queues one single-key write for the current epoch and returns the
// channel its result (membership changed?) arrives on after the batch
// commits. A nil return means the batcher is draining for shutdown and the
// caller must execute the op directly — every op appended before the drain
// flag is set is guaranteed to be flushed by close.
func (b *batcher) submit(insert bool, set txn.Set, key int64) <-chan bool {
	op := batchOp{insert: insert, set: set, key: key, done: make(chan bool, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.pending = append(b.pending, op)
	full := len(b.pending) >= b.maxBatch
	b.mu.Unlock()
	if full {
		select {
		case b.kick <- struct{}{}:
		default: // a kick is already queued; one flush drains everything
		}
	}
	return op.done
}

// pendingLen reports the current epoch's queued op count (tests, stats).
func (b *batcher) pendingLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// run is the epoch loop: flush on every tick, on every early kick, and one
// final time on stop so no submitted op is left unresolved.
func (b *batcher) run() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			b.flush()
			return
		case <-b.tick:
			b.flush()
		case <-b.kick:
			b.flush()
		}
	}
}

// flush publishes everything pending, in submission order, in chunks of at
// most maxBatch ops — each chunk ONE composed atomic operation.
func (b *batcher) flush() {
	b.mu.Lock()
	ops := b.pending
	b.pending = nil
	b.mu.Unlock()
	for len(ops) > 0 {
		n := min(len(ops), b.maxBatch)
		b.commit(ops[:n])
		ops = ops[n:]
	}
}

// commit runs one chunk as a single composed operation and resolves every
// op's reply. The body is restartable (txn.Atomic may re-run it on aborts):
// results are fully rewritten on every attempt and delivered only after the
// commit.
func (b *batcher) commit(ops []batchOp) {
	results := make([]bool, len(ops))
	b.sh.m.Atomic(func(c *txn.Ctx) {
		for i, op := range ops {
			if op.insert {
				results[i] = op.set.TxInsert(c, op.key)
			} else {
				results[i] = op.set.TxRemove(c, op.key)
			}
		}
	})
	b.batches.Add(1)
	b.batchedOps.Add(uint64(len(ops)))
	b.sizes.Observe(len(ops))
	for i, op := range ops {
		op.done <- results[i]
	}
}

// close stops the epoch loop, drains pending ops, and waits for the
// goroutine to exit. Safe to call more than once. Setting closed under the
// mutex before signalling stop orders every successful submit before the
// final flush, so no op is ever left unresolved.
func (b *batcher) close() {
	b.once.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		if b.ticker != nil {
			b.ticker.Stop()
		}
		close(b.stop)
	})
	<-b.done
}
