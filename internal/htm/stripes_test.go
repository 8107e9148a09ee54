package htm

import (
	"sync"
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

// TestAliasConflictClassifiedFalse (the name predates per-Var stamps, when
// this write aborted the reader with an alias conflict): a completed write to
// an unrelated Var that shares the read Var's stripe aborts nothing — the
// later Load of the read Var succeeds, the transaction commits, and no
// conflict, true or false, is booked.
func TestAliasConflictClassifiedFalse(t *testing.T) {
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

// holdStripe takes v's stripe by hand on behalf of Var owner and returns the
// function that puts it back as found.
func holdStripe[T comparable](d *Domain, v *Var[T], owner uint64) func() {
	s := d.stripeOf(v.id)
	pre := s.acquire(owner)
	return func() { s.word.Store(pre) }
}

// TestHeldStripeAbortsLoad is the positive twin: what is left of aliasing is
// meeting a stripe that is held right now. A Load that finds its stripe held
// (and still held after its bounded wait) aborts, classified from the owner
// in the lock word: an aliased Var's writer is a false conflict, the read
// Var's own writer — or the writer of a Var read earlier — a true one.
func TestHeldStripeAbortsLoad(t *testing.T) {
	for _, c := range []struct {
		name      string
		owner     func(a, b, c *Var[int]) uint64
		wantAlias bool
	}{
		{"aliased owner", func(a, b, c *Var[int]) uint64 { return b.id }, true},
		{"own Var", func(a, b, c *Var[int]) uint64 { return a.id }, false},
		{"Var read earlier", func(a, b, c *Var[int]) uint64 { return c.id }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDomain(0, 0)
			a := NewVar(d, 1)
			b, other := aliasVar(t, d, a), aliasVar(t, d, a)
			var release func()
			st, alias := d.AtomicallyClassified(func(tx *Tx) {
				Load(tx, other)
				release = holdStripe(d, a, c.owner(a, b, other))
				Load(tx, a)
				t.Error("read went through a held stripe")
			})
			release()
			if st != AbortConflict || alias != c.wantAlias {
				t.Fatalf("(status, alias) = (%v, %v), want (conflict, %v)", st, alias, c.wantAlias)
			}
			if s := d.Stats(); s.Conflicts != 1 || (s.FalseConflicts == 1) != c.wantAlias {
				t.Fatalf("stats = %+v", s)
			}
		})
	}
}

// TestLoadWaitsOutAHolder: a holder that lets go within the bounded wait
// costs the reader nothing.
func TestLoadWaitsOutAHolder(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	b := aliasVar(t, d, a)
	release := holdStripe(d, a, b.id)
	go release() // runs at the reader's first yield, if not before
	if st := d.Atomically(func(tx *Tx) {
		if Load(tx, a) != 1 {
			t.Error("wrong value after the wait")
		}
	}); st != Committed {
		t.Fatalf("status = %v, want commit once the holder released", st)
	}
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

// TestCommitValidationClassifiesAlias (the name predates per-Var stamps,
// when this write failed commit validation with an alias conflict): a
// completed write to an aliased Var that lands after the transaction's last
// read passes commit validation — only the stamps of the Vars actually read
// are judged — and books no conflict.
func TestCommitValidationClassifiesAlias(t *testing.T) {
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

// TestHeldStripeFailsValidation is the positive twin on the commit path: a
// read stripe found held by someone else at validation aborts the commit,
// alias or true by the owner in the lock word. (A commit by someone else in
// between takes the attempt off the wv == rv+1 shortcut.)
func TestHeldStripeFailsValidation(t *testing.T) {
	for _, c := range []struct {
		name      string
		own       bool
		wantAlias bool
	}{
		{"aliased owner", false, true},
		{"own Var", true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDomain(0, 0)
			a := NewVar(d, 1)
			w, far := disjointVar(t, d, a), disjointVar(t, d, a)
			b := aliasVar(t, d, a)
			owner := b.id
			if c.own {
				owner = a.id
			}
			var release func()
			st, alias := d.AtomicallyClassified(func(tx *Tx) {
				Load(tx, a)
				Store(tx, w, 1)
				Store(nil, far, 5) // someone else commits: validation will run
				release = holdStripe(d, a, owner)
			})
			release()
			if st != AbortConflict || alias != c.wantAlias {
				t.Fatalf("(status, alias) = (%v, %v), want (conflict, %v)", st, alias, c.wantAlias)
			}
			if Load(nil, w) != 0 {
				t.Fatal("an aborted commit published")
			}
			if got := d.table().stripes[sidxOf(d, w)].word.Load(); got&1 != 0 {
				t.Fatalf("aborted commit left w's stripe locked: %#x", got)
			}
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
