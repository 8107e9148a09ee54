package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestResizeStripesBasic pins the swap API: the count changes, values
// survive rehashing (values never move — only their conflict-detection
// stripes do), the swap counter advances, and a no-op resize reports false.
func TestResizeStripesBasic(t *testing.T) {
	d := NewDomainStripes(0, 0, 64)
	vars := make([]*Var[int], 128)
	for i := range vars {
		vars[i] = NewVar(d, i)
	}
	if !d.ResizeStripes(1024) {
		t.Fatal("ResizeStripes(1024) reported no swap")
	}
	if got := d.Stripes(); got != 1024 {
		t.Fatalf("Stripes() = %d after resize, want 1024", got)
	}
	if got := d.Remaps(); got != 1 {
		t.Fatalf("Remaps() = %d, want 1", got)
	}
	if d.ResizeStripes(1024) {
		t.Fatal("same-size resize reported a swap")
	}
	for i, v := range vars {
		if got := Load(nil, v); got != i {
			t.Fatalf("vars[%d] = %d after resize, want %d", i, got, i)
		}
	}
	// Transactions and direct writers keep working against the new table.
	if st := d.Atomically(func(tx *Tx) {
		for _, v := range vars[:8] {
			Store(tx, v, Load(tx, v)+1000)
		}
	}); st != Committed {
		t.Fatalf("post-resize tx status = %v", st)
	}
	if got := Load(nil, vars[0]); got != 1000 {
		t.Fatalf("vars[0] = %d after post-resize tx, want 1000", got)
	}
	// Shrinking back works too (the controller may step down after calm).
	if !d.ResizeStripes(64) {
		t.Fatal("shrink reported no swap")
	}
	if got := d.Remaps(); got != 2 {
		t.Fatalf("Remaps() = %d, want 2", got)
	}
}

func TestResizeStripesPanicsOnBadCount(t *testing.T) {
	d := NewDomain(0, 0)
	for _, n := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ResizeStripes(%d) did not panic", n)
				}
			}()
			d.ResizeStripes(n)
		}()
	}
}

// swapThenRetry runs body as a transaction that resizes the table between
// its first read and whatever body does next, checks that the attempt ends
// the way an in-flight transaction must after a swap, and — when that is an
// abort — that the retry (no further swap) commits under the new table.
// ResizeStripes is called from inside the transaction body: it waits for no
// transaction, so it returns there.
func swapThenRetry(t *testing.T, want Status, body func(tx *Tx, a, b *Var[int])) (a, b *Var[int]) {
	t.Helper()
	d := NewDomainStripes(0, 0, 256)
	a = NewVar(d, 1)
	b = NewVar(d, 1)
	attempt := func(swap bool) (Status, bool) {
		return d.AtomicallyClassified(func(tx *Tx) {
			if Load(tx, a) != 1 {
				t.Error("wrong initial read")
			}
			if swap && !d.ResizeStripes(1024) {
				t.Error("ResizeStripes(1024) reported no swap")
			}
			body(tx, a, b)
		})
	}
	st, alias := attempt(true)
	if st != want || alias != (want == AbortConflict) {
		t.Fatalf("(status, alias) across the swap = (%v, %v), want (%v, %v)", st, alias, want, want == AbortConflict)
	}
	if st != Committed {
		if st, _ := attempt(false); st != Committed {
			t.Fatalf("retry under the new table: status = %v, want commit", st)
		}
	}
	if d.Stripes() != 1024 || d.Remaps() != 1 {
		t.Fatalf("Stripes() = %d, Remaps() = %d, want 1024, 1", d.Stripes(), d.Remaps())
	}
	return a, b
}

// TestInFlightTxAbortsAtNextRead: a transaction that began under a table
// since retired finds its next read's stripe locked by the resize sentinel
// and aborts as on any busy stripe — classified alias, the conflict being
// engine-induced — and its retry commits.
func TestInFlightTxAbortsAtNextRead(t *testing.T) {
	_, b := swapThenRetry(t, AbortConflict, func(tx *Tx, a, b *Var[int]) {
		Store(tx, b, Load(tx, b)+1)
	})
	if got := Load(nil, b); got != 2 {
		t.Fatalf("b = %d, want 2: the aborted attempt must not publish, the retry must", got)
	}
}

// TestInFlightTxAbortsAtCommit: with no read after the swap the transaction
// reaches commit, where the lock phase meets the retired stripes.
func TestInFlightTxAbortsAtCommit(t *testing.T) {
	a, b := swapThenRetry(t, AbortConflict, func(tx *Tx, a, b *Var[int]) {
		Store(tx, a, 2)
		Store(tx, b, 2)
	})
	if Load(nil, a) != 2 || Load(nil, b) != 2 {
		t.Fatalf("a=%d b=%d, want 2, 2", Load(nil, a), Load(nil, b))
	}
}

// TestInFlightTxReadOnlyCommits: every read was validated against the begin
// snapshot before the swap, so a read-only transaction still serializes
// there and commits.
func TestInFlightTxReadOnlyCommits(t *testing.T) {
	swapThenRetry(t, Committed, func(*Tx, *Var[int], *Var[int]) {})
}

// TestBlockedDirectWritersSurviveResize blocks a direct Store, two CAS
// loops and the resizer behind one hand-held stripe, then releases it. Who
// takes the stripe next is the scheduler's choice; a writer that loses to
// the resizer is left spinning on a stripe that will never unlock and must
// notice the new table and complete there, with no update lost.
func TestBlockedDirectWritersSurviveResize(t *testing.T) {
	for round := 0; round < 50; round++ {
		d := NewDomainStripes(0, 0, 64)
		a := NewVar(d, 0)
		b := aliasVar(t, d, a)
		tb := d.table()
		s := &tb.stripes[tb.indexOf(a.id)]
		pre, _ := d.acquire(tb, s, a.id)
		var wg sync.WaitGroup
		spawn := func(f func()) {
			wg.Add(1)
			go func() { defer wg.Done(); f() }()
		}
		inc := func() {
			for {
				if x := Load(nil, a); CAS(nil, a, x, x+1) {
					return
				}
			}
		}
		spawn(inc)
		spawn(func() { Store(nil, b, 7) })
		spawn(func() { d.ResizeStripes(1024) })
		spawn(inc)
		for i := 0; i < 20; i++ {
			runtime.Gosched() // let them all reach the held stripe
		}
		s.word.Store(pre)
		wg.Wait()
		if Load(nil, a) != 2 || Load(nil, b) != 7 {
			t.Fatalf("round %d: a=%d b=%d, want 2, 7", round, Load(nil, a), Load(nil, b))
		}
		if d.Stripes() != 1024 {
			t.Fatalf("round %d: Stripes() = %d, want 1024", round, d.Stripes())
		}
	}
}

// TestParkedMultiCASDecidesUnderNewTable swaps the table while a descriptor
// sits fully claimed but undecided: its decision must resolve its stripes
// against the new table and publish there, visibly to transactions.
func TestParkedMultiCASDecidesUnderNewTable(t *testing.T) {
	d := NewDomainStripes(0, 0, 64)
	a, b := NewVar(d, 1), NewVar(d, 10)
	st := d.Atomically(func(tx *Tx) {
		Load(tx, a)
		ok := MultiCASParked(func() { d.ResizeStripes(1024) },
			NewUpdate(a, 1, 2), NewUpdate(b, 10, 20))
		if !ok {
			t.Error("parked MultiCAS failed across the swap")
		}
	})
	if st != Committed { // read-only, reads precede the swap
		t.Fatalf("enclosing read-only tx: status = %v", st)
	}
	if Load(nil, a) != 2 || Load(nil, b) != 20 {
		t.Fatalf("a=%d b=%d, want 2, 20", Load(nil, a), Load(nil, b))
	}
	// The decision bumped the NEW table: a transaction that read a before a
	// second MultiCAS on it must abort with a true conflict.
	st, alias := d.AtomicallyClassified(func(tx *Tx) {
		Load(tx, a)
		if !MultiCAS(NewUpdate(a, 2, 3)) {
			t.Error("post-swap MultiCAS failed")
		}
		Load(tx, a)
		t.Error("read survived a same-Var MultiCAS under the new table")
	})
	if st != AbortConflict || alias {
		t.Fatalf("(status, alias) = (%v, %v), want (conflict, false)", st, alias)
	}
}

// TestResizeUnderLoad is the acceptance stress: transactional increments,
// direct CAS loops, and single-leg MultiCAS traffic run flat out while a
// controller goroutine swaps the stripe table up and down repeatedly. Run
// under -race this exercises every writer path's re-resolution with commits
// in flight; the final counts prove no update was lost across any swap.
func TestResizeUnderLoad(t *testing.T) {
	d := NewDomainStripes(0, 0, 64)
	const workers = 6
	const opsPer = 4000
	vars := make([]*Var[int], workers)
	for i := range vars {
		vars[i] = NewVar(d, 0)
	}
	var stop atomic.Bool
	var ctrl, work sync.WaitGroup
	ctrl.Add(1)
	go func() { // the remap controller
		defer ctrl.Done()
		sizes := []int{128, 32, 512, 64, 256}
		for i := 0; !stop.Load(); i++ {
			d.ResizeStripes(sizes[i%len(sizes)])
			runtime.Gosched()
		}
	}()
	for w := 0; w < workers; w++ {
		work.Add(1)
		go func(v *Var[int]) {
			defer work.Done()
			for i := 0; i < opsPer; i++ {
				switch i % 3 {
				case 0:
					for {
						if d.Atomically(func(tx *Tx) {
							Store(tx, v, Load(tx, v)+1)
						}) == Committed {
							break
						}
					}
				case 1:
					for {
						x := Load(nil, v)
						if CAS(nil, v, x, x+1) {
							break
						}
					}
				default:
					for {
						x := Load(nil, v)
						if MultiCAS(NewUpdate(v, x, x+1)) {
							break
						}
					}
				}
			}
		}(vars[w])
	}
	// A swap waits only for stripe holders, so the controller never
	// deadlocks against the workers; wait for the workers, then stop it.
	work.Wait()
	stop.Store(true)
	ctrl.Wait()
	for i, v := range vars {
		if got := Load(nil, v); got != opsPer {
			t.Fatalf("var %d = %d, want %d: updates lost across swaps", i, got, opsPer)
		}
	}
	if d.Remaps() == 0 {
		t.Fatal("controller never completed a swap under load")
	}
}

// TestResizeWithMultiCASDescriptorsInFlight drives wide MultiCAS
// publications (descriptor claims spanning many stripes) concurrently with
// swaps: the decision path must give up on a retired table mid-spin and the
// parked window must resolve correctly whichever table decides it.
func TestResizeWithMultiCASDescriptorsInFlight(t *testing.T) {
	d := NewDomainStripes(0, 0, 64)
	const legs = 8
	const rounds = 1500
	vars := make([]*Var[int], legs)
	for i := range vars {
		vars[i] = NewVar(d, 0)
	}
	var stop atomic.Bool
	var ctrl, work sync.WaitGroup
	ctrl.Add(1)
	go func() {
		defer ctrl.Done()
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				d.ResizeStripes(256)
			} else {
				d.ResizeStripes(64)
			}
			runtime.Gosched()
		}
	}()
	for w := 0; w < 2; w++ {
		work.Add(1)
		go func() {
			defer work.Done()
			for r := 0; r < rounds; r++ {
				for {
					ents := make([]Entry, legs)
					old := make([]int, legs)
					for i, v := range vars {
						old[i] = Load(nil, v)
					}
					for i, v := range vars {
						ents[i] = NewUpdate(v, old[i], old[i]+1)
					}
					if MultiCASParked(runtime.Gosched, ents...) {
						break
					}
				}
			}
		}()
	}
	// Two workers, each round adds exactly 1 to every leg iff the whole
	// MultiCAS succeeded; total per leg must be 2*rounds.
	work.Wait()
	stop.Store(true)
	ctrl.Wait()
	for i, v := range vars {
		if got := Load(nil, v); got != 2*rounds {
			t.Fatalf("leg %d = %d, want %d", i, got, 2*rounds)
		}
	}
}
