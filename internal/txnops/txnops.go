// Package txnops is the shared adapter contract of the two transactional
// composition layers. internal/txn (real runtime, htm-backed) and
// internal/simtxn (discrete-event machine) each run composed bodies against
// a substrate-specific Ctx; what a *structure* must provide to participate —
// and what a composed *algorithm* may assume of a structure — is identical
// on both substrates. This package states that contract once:
//
//   - Ctx is the substrate-neutral face of an attempt context: the three
//     methods every composed algorithm needs (Retry, Speculative, OnCommit).
//     The substrate Ctx types add their own typed memory accessors (txn's
//     generic Read/Peek/Write over htm.Var, simtxn's word accessors); those
//     are adapter business, not algorithm business, so they stay out of the
//     contract.
//
//   - Set, Queue, and PQ are the capability interfaces. A structure plugs
//     into a substrate by implementing one of them against that substrate's
//     Ctx; the composed algorithms below are written once, generically, over
//     any (Ctx, key) instantiation. internal/txn instantiates them at
//     (*txn.Ctx, int64), internal/simtxn at (*simtxn.Ctx, uint64).
//
//   - Exec abstracts "run this body atomically with retry". txn.Manager
//     satisfies it directly; simtxn.Manager binds a simulated thread first
//     (Manager.On). Every algorithm takes an Exec, so the same Move source
//     serves both substrates — the bit-for-bit regression bar for the
//     deterministic figures.
//
//   - Registry is the registration surface: drivers (bench, fuzz)
//     register each structure once per substrate under a name and then
//     enumerate pairs generically, instead of each driver growing its own
//     per-structure plumbing.
//
// The algorithms keep the §2.4 discipline by construction: they only call
// adapter methods and Ctx.Retry, so they never help under speculation and
// never observe a torn pair of structures.
package txnops

// Ctx is the substrate-neutral attempt context. Both *txn.Ctx and
// *simtxn.Ctx implement it.
type Ctx interface {
	// Retry abandons the current attempt and re-runs the body. It does not
	// return.
	Retry()
	// Speculative reports whether the body is running inside a fast-path
	// transaction (where helping is forbidden — §2.4).
	Speculative() bool
	// OnCommit registers f to run once, after the composed operation
	// commits on any path.
	OnCommit(f func())
}

// Set is the composable set capability: membership plus insert/remove, all
// linearized with the enclosing composed operation.
type Set[C Ctx, K any] interface {
	TxContains(c C, key K) bool
	TxInsert(c C, key K) bool
	TxRemove(c C, key K) bool
}

// Queue is the composable FIFO capability.
type Queue[C Ctx, V any] interface {
	TxEnqueue(c C, v V)
	TxDequeue(c C) (V, bool)
}

// PQ is the composable priority-queue capability (mound, skip-based PQs).
// TxPush always succeeds (duplicates allowed); TxPopMin reports false on an
// empty queue.
type PQ[C Ctx, V any] interface {
	TxPush(c C, v V)
	TxPopMin(c C) (V, bool)
}

// FrontQueue is the optional read-only extension of Queue: TxFront reads
// the value at the head without removing it, reporting false when the queue
// is empty. Open transactions (internal/semtx) need it to record a
// head-value semantic item without consuming the element; adapters that
// want to participate in open transactions implement it alongside Queue.
type FrontQueue[C Ctx, V any] interface {
	TxFront(c C) (V, bool)
}

// MinPQ is the optional read-only extension of PQ: TxMin reads the current
// minimum without removing it, reporting false on an empty queue. Open
// transactions use it to record a min-value semantic item.
type MinPQ[C Ctx, V any] interface {
	TxMin(c C) (V, bool)
}

// Exec runs composed bodies atomically. txn.Manager implements it; a
// simtxn.Manager bound to a thread (Manager.On) implements it for the
// simulated machine.
type Exec[C Ctx] interface {
	Atomic(body func(c C))
}

// Move atomically moves key from src to dst, reporting whether it did. The
// move happens only when key is present in src and absent from dst, so a
// successful Move conserves the total key count across the two sets — the
// invariant the composition tests check under concurrency.
func Move[C Ctx, K any](x Exec[C], src, dst Set[C, K], key K) bool {
	var moved bool
	x.Atomic(func(c C) {
		moved = false
		if dst.TxContains(c, key) {
			return
		}
		if !src.TxRemove(c, key) {
			return
		}
		if !dst.TxInsert(c, key) {
			// The insert's view disagrees with the TxContains probe above
			// (a concurrent insert slipped between the two capture-mode
			// traversals); the commit would not validate, so restart now.
			c.Retry()
		}
		moved = true
	})
	return moved
}

// MoveAll atomically moves every key in keys from src to dst inside ONE
// composed operation — one prefix transaction on the fast path, one N-word
// MultiCAS in the fallback — amortizing the per-transaction cost across the
// batch. Keys already in dst or absent from src are skipped (the rest of the
// batch still moves); the returned count is how many moved. A nil or empty
// batch is a no-op.
func MoveAll[C Ctx, K any](x Exec[C], src, dst Set[C, K], keys ...K) int {
	if len(keys) == 0 {
		return 0
	}
	var moved int
	x.Atomic(func(c C) {
		moved = 0
		for _, key := range keys {
			if dst.TxContains(c, key) {
				continue
			}
			if !src.TxRemove(c, key) {
				continue
			}
			if !dst.TxInsert(c, key) {
				c.Retry()
			}
			moved++
		}
	})
	return moved
}

// Transfer atomically dequeues up to n values from src and enqueues them on
// dst, returning how many moved. The transfer is all-or-nothing: no
// concurrent observer sees a value absent from both queues.
func Transfer[C Ctx, V any](x Exec[C], src, dst Queue[C, V], n int) int {
	var moved int
	x.Atomic(func(c C) {
		moved = 0
		for i := 0; i < n; i++ {
			v, ok := src.TxDequeue(c)
			if !ok {
				break
			}
			dst.TxEnqueue(c, v)
			moved++
		}
	})
	return moved
}

// MoveMin atomically pops src's minimum and inserts it into dst, reporting
// the value and whether a cross-structure move happened. When dst already
// holds the value, the pop is undone by pushing the value back into src in
// the same atomic step — the pair's contents are conserved either way.
func MoveMin[C Ctx, V any](x Exec[C], src PQ[C, V], dst Set[C, V]) (V, bool) {
	var v V
	var moved bool
	x.Atomic(func(c C) {
		moved = false
		var ok bool
		v, ok = src.TxPopMin(c)
		if !ok {
			return
		}
		if dst.TxInsert(c, v) {
			moved = true
			return
		}
		src.TxPush(c, v)
	})
	return v, moved
}

// MoveToPQ atomically removes key from src and pushes it onto dst, reporting
// whether it did. The push cannot fail (PQs admit duplicates), so the move
// conserves the pair's contents.
func MoveToPQ[C Ctx, V any](x Exec[C], src Set[C, V], dst PQ[C, V], key V) bool {
	var moved bool
	x.Atomic(func(c C) {
		moved = false
		if !src.TxRemove(c, key) {
			return
		}
		dst.TxPush(c, key)
		moved = true
	})
	return moved
}
