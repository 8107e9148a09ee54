package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file pin who meets whom: a reader or a writer meets the
// writer of its own Var, through that Var's lock bit, and nobody else.

// checkUnlocked fails unless each Var's word is unlocked and carries stamp
// want.
func checkUnlocked(t *testing.T, want uint64, vars ...*Var[int]) {
	t.Helper()
	for _, v := range vars {
		if got := v.ver.Load(); got != want {
			t.Errorf("Var %d: word %#x, want the unlocked stamp %d", v.id, got, want)
		}
	}
}

// TestDisjointWriterDoesNotAbort: a non-transactional write to another Var
// lands mid-transaction and the transaction still commits, through a commit
// validation that runs (the write drew a version) and judges only the words
// of the Vars actually read.
func TestDisjointWriterDoesNotAbort(t *testing.T) {
	d := NewDomain(0, 0)
	a, b := NewVar(d, 1), NewVar(d, 0)
	st := d.Atomically(func(tx *Tx) {
		if Load(tx, a) != 1 {
			t.Error("wrong initial read")
		}
		Store(nil, b, 9) // another Var: must not doom this tx
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

// TestMultiCASDisjointFromTxDoesNotAbort: a MultiCAS whose footprint shares no
// Var with an overlapping transaction does not abort it.
func TestMultiCASDisjointFromTxDoesNotAbort(t *testing.T) {
	d := NewDomain(0, 0)
	a, x, y := NewVar(d, 1), NewVar(d, 0), NewVar(d, 0)
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

// TestLockedVarAbortsLoad: what a reader meets is its Var's own writer. A
// Load that finds the Var's lock bit set (and still set after its bounded
// wait) aborts with a conflict.
func TestLockedVarAbortsLoad(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	a.lock()
	st := d.Atomically(func(tx *Tx) {
		Load(tx, a)
		t.Error("read went through a locked Var")
	})
	a.unlockVer()
	if st != AbortConflict {
		t.Fatalf("status = %v, want conflict", st)
	}
	if s := d.Stats(); s.Conflicts != 1 {
		t.Fatalf("stats = %+v, want one conflict", s)
	}
	checkUnlocked(t, 0, a)
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
		a.lock()
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

// TestTrueConflictClassifiedTrue: a write to the Var the transaction actually
// read is a conflict, and booked as one.
func TestTrueConflictClassifiedTrue(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	st := d.Atomically(func(tx *Tx) {
		Load(tx, a)
		Store(nil, a, 7)
		Load(tx, a)
		t.Error("read survived a write to the same Var")
	})
	if st != AbortConflict {
		t.Fatalf("status = %v, want conflict", st)
	}
	if s := d.Stats(); s.Conflicts != 1 {
		t.Fatalf("stats = %+v, want the conflict counted", s)
	}
}

// TestLockedVarFailsValidation is TestLockedVarAbortsLoad on the commit path:
// a read Var found locked by someone else at validation fails the commit as a
// conflict, which publishes nothing and leaves no written Var locked. (A
// commit by someone else in between takes the attempt off the wv == rv+1
// shortcut.)
func TestLockedVarFailsValidation(t *testing.T) {
	d := NewDomain(0, 0)
	a, w, w2, far := NewVar(d, 1), NewVar(d, 0), NewVar(d, 0), NewVar(d, 0)
	st := d.Atomically(func(tx *Tx) {
		Load(tx, a)
		Store(tx, w, 1)
		Store(tx, w2, 1)
		Store(nil, far, 5) // someone else commits: validation will run
		a.lock()
	})
	a.unlockVer()
	if st != AbortConflict {
		t.Fatalf("status = %v, want conflict", st)
	}
	if Load(nil, w) != 0 || Load(nil, w2) != 0 {
		t.Fatal("an aborted commit published")
	}
	checkUnlocked(t, 0, a, w, w2)
	if s := d.Stats(); s.Conflicts != 1 {
		t.Fatalf("stats = %+v, want one conflict", s)
	}
}

// TestLockPhaseMeetsLockedVar: a commit whose lock phase meets a written Var
// that another writer holds aborts with a conflict instead of waiting. The
// bits are taken in Var-id order whatever order the body wrote in, so lo's is
// taken and given back — it ends on the stamp it had — and hi's never;
// nothing is published, and the holder's bit is left alone.
func TestLockPhaseMeetsLockedVar(t *testing.T) {
	d := NewDomain(0, 0)
	lo, w, hi := NewVar(d, 0), NewVar(d, 0), NewVar(d, 0)
	Store(nil, lo, 0) // a stamp to give back
	w.lock()
	st := d.Atomically(func(tx *Tx) {
		Store(tx, hi, 1)
		Store(tx, w, 1)
		Store(tx, lo, 1)
	})
	if st != AbortConflict {
		t.Fatalf("status = %v, want conflict", st)
	}
	if w.ver.Load() != verLocked {
		t.Fatalf("the holder's word is %#x, want locked and unstamped", w.ver.Load())
	}
	w.unlockVer()
	if s := d.Stats(); s.Conflicts != 1 {
		t.Fatalf("stats = %+v, want one conflict", s)
	}
	if Load(nil, lo) != 0 || Load(nil, w) != 0 || Load(nil, hi) != 0 {
		t.Fatal("an aborted commit published")
	}
	checkUnlocked(t, 1, lo)
	checkUnlocked(t, 0, w, hi)
}

// TestDisjointCommitParallelism: transactions whose footprints share no Var
// run concurrently without ever aborting one another.
func TestDisjointCommitParallelism(t *testing.T) {
	d := NewDomain(0, 0)
	a, b := NewVar(d, 0), NewVar(d, 0)
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
		t.Fatalf("conflicts = %d on disjoint Vars, want 0", s.Conflicts)
	}
}

// TestSingleWriterVarsNeverConflict: 64 Vars, each written by one goroutine
// only — by transaction, by direct CAS and by one-leg MultiCAS — and read by
// nobody else. No two writers of different Vars ever meet, so no attempt of
// any kind fails and the domain books exactly no conflict.
func TestSingleWriterVarsNeverConflict(t *testing.T) {
	d := NewDomain(0, 0)
	const workers, varsPer, opsPer = 8, 8, 400
	vars := make([]*Var[int], workers*varsPer)
	for i := range vars {
		vars[i] = NewVar(d, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine []*Var[int]) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				for _, v := range mine {
					x := Load(nil, v)
					switch {
					case i%5 == 4:
						if !CAS(nil, v, x, x+1) {
							t.Error("a direct CAS on a single-writer Var failed")
						}
					case i%7 == 6:
						if !MultiCAS(NewUpdate(v, x, x+1)) {
							t.Error("a MultiCAS on a single-writer Var failed")
						}
					default:
						if st := d.Atomically(func(tx *Tx) { Store(tx, v, Load(tx, v)+1) }); st != Committed {
							t.Errorf("a transaction on a single-writer Var: %v", st)
						}
					}
				}
			}
		}(vars[w*varsPer : (w+1)*varsPer])
	}
	wg.Wait()
	for i, v := range vars {
		if got := Load(nil, v); got != opsPer {
			t.Fatalf("var %d = %d, want %d", i, got, opsPer)
		}
	}
	if s := d.Stats(); s.Conflicts != 0 {
		t.Fatalf("stats = %+v: writers of different Vars met", s)
	}
}

// TestWideMultiCASParkedRace races 8-leg MultiCAS publications over the same
// eight Vars, each parked between claim and decision: every decision waits
// for lock bits behind the other's, and helpers decide descriptors they did
// not create. Each success adds exactly 1 to every leg.
func TestWideMultiCASParkedRace(t *testing.T) {
	d := NewDomain(0, 0)
	const legs = 8
	const rounds = 1500
	vars := make([]*Var[int], legs)
	for i := range vars {
		vars[i] = NewVar(d, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for {
					ents := make([]Entry, legs)
					for i, v := range vars {
						x := Load(nil, v)
						ents[i] = NewUpdate(v, x, x+1)
					}
					if MultiCASParked(runtime.Gosched, ents...) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, v := range vars {
		if got := Load(nil, v); got != 2*rounds {
			t.Fatalf("leg %d = %d, want %d", i, got, 2*rounds)
		}
	}
}
