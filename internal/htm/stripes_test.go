package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// sidxOf resolves a Var's stripe index in the domain's table.
func sidxOf[T comparable](d *Domain, v *Var[T]) uint32 {
	return d.table().indexOf(v.id)
}

// aliasVar allocates Vars until one hashes to the same stripe as a — the
// deliberate stripe-alias pair the classification tests need. The Fibonacci
// stripe hash walks every bucket within a few multiples of the table size,
// so the loop bound is generous.
func aliasVar(t *testing.T, d *Domain, a *Var[int]) *Var[int] {
	t.Helper()
	for i := 0; i < 16*d.Stripes(); i++ {
		b := NewVar(d, 0)
		if sidxOf(d, b) == sidxOf(d, a) {
			return b
		}
	}
	t.Fatalf("no Var aliasing stripe %d after %d allocations", sidxOf(d, a), 16*d.Stripes())
	return nil
}

// disjointVar allocates Vars until one hashes to a different stripe than a.
func disjointVar(t *testing.T, d *Domain, a *Var[int]) *Var[int] {
	t.Helper()
	for i := 0; i < 16*d.Stripes(); i++ {
		b := NewVar(d, 0)
		if sidxOf(d, b) != sidxOf(d, a) {
			return b
		}
	}
	t.Fatalf("no Var avoiding stripe %d after %d allocations", sidxOf(d, a), 16*d.Stripes())
	return nil
}

// TestDisjointWriterDoesNotAbort is the tentpole's deterministic payoff: a
// non-transactional write to a Var on a *different* stripe lands mid-
// transaction and the transaction still commits — under the old whole-
// domain sequence lock any writer anywhere aborted every in-flight
// transaction.
func TestDisjointWriterDoesNotAbort(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	b := disjointVar(t, d, a)
	st := d.Atomically(func(tx *Tx) {
		if Load(tx, a) != 1 {
			t.Error("wrong initial read")
		}
		Store(nil, b, 9) // disjoint stripe: must not doom this tx
		if Load(tx, a) != 1 {
			t.Error("re-read after disjoint write changed value")
		}
		Store(tx, a, 2)
	})
	if st != Committed {
		t.Fatalf("status = %v, want commit despite disjoint writer", st)
	}
	if Load(nil, a) != 2 || Load(nil, b) != 9 {
		t.Fatalf("a=%d b=%d after commit", Load(nil, a), Load(nil, b))
	}
	if s := d.Stats(); s.Conflicts != 0 {
		t.Fatalf("conflicts = %d, want 0", s.Conflicts)
	}
}

// TestMultiCASDisjointFromTxDoesNotAbort checks the MultiCAS interop under
// striping: a MultiCAS whose footprint shares no stripe with an overlapping
// transaction no longer aborts it (the old decision bumped the whole-domain
// clock).
func TestMultiCASDisjointFromTxDoesNotAbort(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	x := disjointVar(t, d, a)
	y := disjointVar(t, d, a)
	st := d.Atomically(func(tx *Tx) {
		Load(tx, a)
		if !MultiCAS(NewUpdate(x, 0, 5), NewUpdate(y, 0, 6)) {
			t.Error("MultiCAS failed")
		}
		Load(tx, a)
		Store(tx, a, 2)
	})
	if st != Committed {
		t.Fatalf("status = %v, want commit despite disjoint MultiCAS", st)
	}
	if Load(nil, x) != 5 || Load(nil, y) != 6 || Load(nil, a) != 2 {
		t.Fatal("values after disjoint MultiCAS + commit are wrong")
	}
}

// TestAliasedWriteAbortsNoReader: a completed write to an unrelated Var that
// shares the read Var's stripe aborts nothing — the later Load of the read
// Var succeeds, the transaction commits, and no conflict, true or false, is
// booked.
func TestAliasedWriteAbortsNoReader(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	b := aliasVar(t, d, a)
	st, alias := d.AtomicallyClassified(func(tx *Tx) {
		Load(tx, a)
		Store(nil, b, 7) // same stripe, different Var
		if Load(tx, a) != 1 {
			t.Error("re-read after an aliased write changed value")
		}
		Store(tx, a, 2)
	})
	if st != Committed || alias {
		t.Fatalf("(status, alias) = (%v, %v), want (committed, false)", st, alias)
	}
	if Load(nil, a) != 2 || Load(nil, b) != 7 {
		t.Fatalf("a=%d b=%d, want 2, 7", Load(nil, a), Load(nil, b))
	}
	if s := d.Stats(); s.Conflicts != 0 || s.FalseConflicts != 0 {
		t.Fatalf("stats = %+v, want no conflict of either kind", s)
	}
}

// stripeOf returns the stripe v hashes to.
func stripeOf[T comparable](d *Domain, v *Var[T]) *stripe {
	return &d.table().stripes[sidxOf(d, v)]
}

// holdStripe takes v's stripe by hand on behalf of Var owner and returns the
// function that frees it.
func holdStripe[T comparable](d *Domain, v *Var[T], owner uint64) func() {
	s := stripeOf(d, v)
	s.acquire(owner)
	return s.release
}

// checkUnlocked fails unless each Var's word is unlocked and carries stamp
// want, and the Var's stripe is free.
func checkUnlocked(t *testing.T, d *Domain, want uint64, vars ...*Var[int]) {
	t.Helper()
	for _, v := range vars {
		if got := v.ver.Load(); got != want {
			t.Errorf("Var %d: word %#x, want the unlocked stamp %d", v.id, got, want)
		}
		if got := stripeOf(d, v).word.Load(); got != 0 {
			t.Errorf("Var %d: stripe left held for Var %d", v.id, got)
		}
	}
}

// TestHeldStripeDoesNotAbortLoad: readers never look at a stripe, so one held
// right now for an aliased Var — a writer of b in flight — costs a reader of
// a nothing: the attempt commits and no conflict of either kind is booked.
func TestHeldStripeDoesNotAbortLoad(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	b := aliasVar(t, d, a)
	release := holdStripe(d, a, b.id)
	st, alias := d.AtomicallyClassified(func(tx *Tx) {
		if Load(tx, a) != 1 {
			t.Error("wrong value read under a held stripe")
		}
	})
	release()
	if st != Committed || alias {
		t.Fatalf("(status, alias) = (%v, %v), want (committed, false)", st, alias)
	}
	if Load(nil, a) != 1 {
		t.Fatal("a direct read under a held stripe went wrong")
	}
	if s := d.Stats(); s.Conflicts != 0 || s.FalseConflicts != 0 {
		t.Fatalf("stats = %+v, want no conflict of either kind", s)
	}
}

// TestLockedVarAbortsLoad is the positive twin: what a reader does meet is
// its Var's own writer. A Load that finds the Var's lock bit set (and still
// set after its bounded wait) aborts with a true conflict.
func TestLockedVarAbortsLoad(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	a.lockVer()
	st, alias := d.AtomicallyClassified(func(tx *Tx) {
		Load(tx, a)
		t.Error("read went through a locked Var")
	})
	a.unlockVer()
	if st != AbortConflict || alias {
		t.Fatalf("(status, alias) = (%v, %v), want (conflict, false)", st, alias)
	}
	if s := d.Stats(); s.Conflicts != 1 || s.FalseConflicts != 0 {
		t.Fatalf("stats = %+v, want one true conflict", s)
	}
	checkUnlocked(t, d, 0, a)
}

// TestLoadWaitsOutAHolder: a writer that finishes within the bounded wait
// costs the reader nothing. The writer unlocks only once the read is under
// way, so an attempt that commits did wait; whether the unlocking goroutine
// gets to run within sixteen yields is up to the scheduler, so one attempt
// in a hundred is all that is asked.
func TestLoadWaitsOutAHolder(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	for try := 0; try < 100; try++ {
		a.lockVer()
		var reading atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			for !reading.Load() {
				runtime.Gosched()
			}
			a.unlockVer()
		}()
		st := d.Atomically(func(tx *Tx) {
			reading.Store(true)
			if Load(tx, a) != 1 {
				t.Error("wrong value after the wait")
			}
		})
		<-done
		if st == Committed {
			return
		}
	}
	t.Fatal("no attempt in a hundred waited out a writer that unlocked as soon as the read began")
}

// TestTrueConflictClassifiedTrue: a write to the Var the transaction
// actually read is attributed as a true conflict.
func TestTrueConflictClassifiedTrue(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	st, alias := d.AtomicallyClassified(func(tx *Tx) {
		Load(tx, a)
		Store(nil, a, 7)
		Load(tx, a)
		t.Error("read survived a write to the same Var")
	})
	if st != AbortConflict || alias {
		t.Fatalf("(status, alias) = (%v, %v), want (conflict, false)", st, alias)
	}
	if s := d.Stats(); s.Conflicts != 1 || s.FalseConflicts != 0 {
		t.Fatalf("stats = %+v, want the conflict counted as true", s)
	}
}

// TestAliasedWritePassesValidation: a completed write to an aliased Var that
// lands after the transaction's last read passes commit validation — only
// the words of the Vars actually read are judged — and books no conflict.
func TestAliasedWritePassesValidation(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	w := disjointVar(t, d, a) // write target on another stripe
	b := aliasVar(t, d, a)
	st, alias := d.AtomicallyClassified(func(tx *Tx) {
		Load(tx, a)
		Store(tx, w, 1)
		Store(nil, b, 7) // aliases a's stripe; commit validates past it
	})
	if st != Committed || alias {
		t.Fatalf("(status, alias) = (%v, %v), want (committed, false)", st, alias)
	}
	if Load(nil, w) != 1 || Load(nil, b) != 7 {
		t.Fatalf("w=%d b=%d, want 1, 7", Load(nil, w), Load(nil, b))
	}
	if s := d.Stats(); s.Conflicts != 0 || s.FalseConflicts != 0 {
		t.Fatalf("stats = %+v, want no conflict of either kind", s)
	}
}

// TestLockedVarFailsValidation is the positive twin on the commit path: a
// read Var found locked by someone else at validation fails the commit as a
// true conflict, which publishes nothing and leaves no written Var locked and
// no stripe held. (A commit by someone else in between takes the attempt off
// the wv == rv+1 shortcut.) A stripe held over the read Var is no obstacle.
func TestLockedVarFailsValidation(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	w, w2, far := disjointVar(t, d, a), disjointVar(t, d, a), disjointVar(t, d, a)
	b := aliasVar(t, d, a)
	var release func()
	st, alias := d.AtomicallyClassified(func(tx *Tx) {
		Load(tx, a)
		Store(tx, w, 1)
		Store(tx, w2, 1)
		Store(nil, far, 5) // someone else commits: validation will run
		release = holdStripe(d, a, b.id)
		a.lockVer()
	})
	a.unlockVer()
	release()
	if st != AbortConflict || alias {
		t.Fatalf("(status, alias) = (%v, %v), want (conflict, false)", st, alias)
	}
	if Load(nil, w) != 0 || Load(nil, w2) != 0 {
		t.Fatal("an aborted commit published")
	}
	checkUnlocked(t, d, 0, a, w, w2)
	if s := d.Stats(); s.Conflicts != 1 || s.FalseConflicts != 0 {
		t.Fatalf("stats = %+v, want one true conflict", s)
	}
}

// TestLockPhaseMeetsAliasedStripe is the one alias conflict left: the
// commit's own lock phase meets a stripe held for a Var the attempt never
// touched. Held for a Var it wrote or read, the same encounter is a true
// conflict. Either way the stripes already taken are freed and no written
// Var is left locked.
func TestLockPhaseMeetsAliasedStripe(t *testing.T) {
	for _, c := range []struct {
		name      string
		owner     func(w, b, r *Var[int]) uint64
		wantAlias bool
	}{
		{"untouched Var", func(w, b, r *Var[int]) uint64 { return b.id }, true},
		{"written Var", func(w, b, r *Var[int]) uint64 { return w.id }, false},
		{"read Var", func(w, b, r *Var[int]) uint64 { return r.id }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDomain(0, 0)
			w := NewVar(d, 0)
			for i := sidxOf(d, w); i == 0 || int(i) == d.Stripes()-1; i = sidxOf(d, w) {
				w = NewVar(d, 0) // leave room for a stripe on either side
			}
			b, r := aliasVar(t, d, w), aliasVar(t, d, w)
			// Written stripes are locked ascending: lo's is taken before the
			// commit meets w's, hi's never.
			lo, hi := disjointVar(t, d, w), disjointVar(t, d, w)
			for sidxOf(d, lo) > sidxOf(d, w) {
				lo = disjointVar(t, d, w)
			}
			for sidxOf(d, hi) < sidxOf(d, w) {
				hi = disjointVar(t, d, w)
			}
			release := holdStripe(d, w, c.owner(w, b, r))
			st, alias := d.AtomicallyClassified(func(tx *Tx) {
				Load(tx, r)
				Store(tx, lo, 1)
				Store(tx, w, 1)
				Store(tx, hi, 1)
			})
			release()
			if st != AbortConflict || alias != c.wantAlias {
				t.Fatalf("(status, alias) = (%v, %v), want (conflict, %v)", st, alias, c.wantAlias)
			}
			if s := d.Stats(); s.Conflicts != 1 || (s.FalseConflicts == 1) != c.wantAlias {
				t.Fatalf("stats = %+v", s)
			}
			if Load(nil, lo) != 0 || Load(nil, w) != 0 || Load(nil, hi) != 0 {
				t.Fatal("an aborted commit published")
			}
			checkUnlocked(t, d, 0, lo, w, hi, r)
		})
	}
}

// TestDisjointCommitParallelism: transactions whose footprints live on
// different stripes run concurrently without ever aborting one another.
func TestDisjointCommitParallelism(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 0)
	b := disjointVar(t, d, a)
	const opsPer = 5000
	var wg sync.WaitGroup
	for _, v := range []*Var[int]{a, b} {
		wg.Add(1)
		go func(v *Var[int]) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if st := d.Atomically(func(tx *Tx) {
					Store(tx, v, Load(tx, v)+1)
				}); st != Committed {
					t.Errorf("disjoint tx aborted: %v", st)
					return
				}
			}
		}(v)
	}
	wg.Wait()
	if Load(nil, a) != opsPer || Load(nil, b) != opsPer {
		t.Fatalf("a=%d b=%d, want %d each", Load(nil, a), Load(nil, b), opsPer)
	}
	if s := d.Stats(); s.Conflicts != 0 {
		t.Fatalf("conflicts = %d on disjoint stripes, want 0", s.Conflicts)
	}
}

// TestAliasedStripesLinearizable hammers two Vars that share a stripe from
// one goroutine each (run it under -race): every increment must survive
// despite the aliased footprints, and — since each Var has a single writer —
// every conflict between the two goroutines is by construction a stripe
// alias, so the classifier must attribute all of them as false.
func TestAliasedStripesLinearizable(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 0)
	b := aliasVar(t, d, a)
	const opsPer = 5000
	var wg sync.WaitGroup
	for _, v := range []*Var[int]{a, b} {
		wg.Add(1)
		go func(v *Var[int]) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				for {
					if d.Atomically(func(tx *Tx) {
						Store(tx, v, Load(tx, v)+1)
					}) == Committed {
						break
					}
				}
			}
		}(v)
	}
	wg.Wait()
	if Load(nil, a) != opsPer || Load(nil, b) != opsPer {
		t.Fatalf("a=%d b=%d, want %d each: aliased stripes lost updates",
			Load(nil, a), Load(nil, b), opsPer)
	}
	s := d.Stats()
	if s.FalseConflicts != s.Conflicts {
		t.Fatalf("stats = %+v: single-writer aliased Vars must classify every conflict as false", s)
	}
}
