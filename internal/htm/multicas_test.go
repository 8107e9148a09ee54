package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMultiCASBasic(t *testing.T) {
	d := NewDomain(0, 0)
	a, b, c := NewVar(d, 1), NewVar(d, 2), NewVar(d, 3)
	if !MultiCAS(NewUpdate(a, 1, 10), NewUpdate(b, 2, 20), NewUpdate(c, 3, 30)) {
		t.Fatal("matching MultiCAS failed")
	}
	if Load(nil, a) != 10 || Load(nil, b) != 20 || Load(nil, c) != 30 {
		t.Fatalf("got %d %d %d", Load(nil, a), Load(nil, b), Load(nil, c))
	}
	// One stale leg: nothing changes.
	if MultiCAS(NewUpdate(a, 10, 11), NewUpdate(b, 99, 21)) {
		t.Fatal("stale MultiCAS succeeded")
	}
	if Load(nil, a) != 10 || Load(nil, b) != 20 {
		t.Fatalf("failed MultiCAS mutated vars: %d %d", Load(nil, a), Load(nil, b))
	}
}

func TestMultiCASReadGuard(t *testing.T) {
	d := NewDomain(0, 0)
	guard, w := NewVar(d, 7), NewVar(d, 1)
	if !MultiCAS(NewUpdate(guard, 7, 7), NewUpdate(w, 1, 2)) {
		t.Fatal("guarded MultiCAS failed")
	}
	if Load(nil, guard) != 7 || Load(nil, w) != 2 {
		t.Fatalf("guard=%d w=%d", Load(nil, guard), Load(nil, w))
	}
}

func TestMultiCASBumpsClockAbortsOverlappingTx(t *testing.T) {
	d := NewDomain(0, 0)
	a, b := NewVar(d, 1), NewVar(d, 2)
	status := d.Atomically(func(tx *Tx) {
		if Load(tx, a) != 1 {
			t.Error("tx read wrong initial value")
		}
		// A MultiCAS committing mid-transaction must doom this tx.
		if !MultiCAS(NewUpdate(a, 1, 5), NewUpdate(b, 2, 6)) {
			t.Error("MultiCAS failed")
		}
		Load(tx, b) // must observe the clock bump and abort
		t.Error("transactional read survived a committed MultiCAS")
	})
	if status != AbortConflict {
		t.Fatalf("status = %v, want AbortConflict", status)
	}
	if Load(nil, a) != 5 || Load(nil, b) != 6 {
		t.Fatalf("a=%d b=%d after MultiCAS", Load(nil, a), Load(nil, b))
	}
}

func TestCommitKillsUndecidedDescriptor(t *testing.T) {
	d := NewDomain(0, 0)
	a, b := NewVar(d, 1), NewVar(d, 2)
	// Stage an undecided descriptor claiming both vars, as a stalled MCAS
	// initiator would leave it.
	ua, ub := NewUpdate(a, 1, 10), NewUpdate(b, 2, 20)
	m := &MultiDesc{d: d, entries: []Entry{ua, ub}}
	for _, e := range m.entries {
		if res, _ := m.claim(e); res != claimOK {
			t.Fatal("staging claim failed")
		}
	}
	// A transaction writing var a must kill the stalled operation and win.
	status := d.Atomically(func(tx *Tx) {
		Store(tx, a, 99)
	})
	if status != Committed {
		t.Fatalf("status = %v, want Committed", status)
	}
	if m.status.Load() != mwFailed {
		t.Fatalf("stalled descriptor status = %d, want failed", m.status.Load())
	}
	if Load(nil, a) != 99 {
		t.Fatalf("a = %d, want 99", Load(nil, a))
	}
	if Load(nil, b) != 2 {
		t.Fatalf("b = %d, want 2 (failed MCAS must restore old)", Load(nil, b))
	}
}

func TestDirectStoreKillsUndecidedDescriptor(t *testing.T) {
	d := NewDomain(0, 0)
	a, b := NewVar(d, 1), NewVar(d, 2)
	ua, ub := NewUpdate(a, 1, 10), NewUpdate(b, 2, 20)
	m := &MultiDesc{d: d, entries: []Entry{ua, ub}}
	for _, e := range m.entries {
		if res, _ := m.claim(e); res != claimOK {
			t.Fatal("staging claim failed")
		}
	}
	Store(nil, b, 42)
	if m.status.Load() != mwFailed {
		t.Fatalf("descriptor status = %d, want failed", m.status.Load())
	}
	if Load(nil, a) != 1 || Load(nil, b) != 42 {
		t.Fatalf("a=%d b=%d", Load(nil, a), Load(nil, b))
	}
}

// TestFastKillsParkedDescriptor is the kill rule end to end: a MultiCAS
// parked between its claim phase and its decision meets a transaction that
// writes one of its legs. The commit kills the undecided descriptor, so the
// parked publication fails and its other leg never lands.
func TestFastKillsParkedDescriptor(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 5)
	z := NewVar(d, 1)
	var st Status
	ok := multiCAS(func() {
		st = d.Atomically(func(tx *Tx) { Store(tx, x, 7) })
	}, NewUpdate(x, 5, 6), NewUpdate(z, 1, 2))
	if st != Committed {
		t.Fatalf("fast attempt: %v, want commit", st)
	}
	if ok {
		t.Fatal("the parked MultiCAS succeeded past a committed writer of its leg")
	}
	if got := Load(nil, z); got != 1 {
		t.Fatalf("Z = %d, want 1 (failed MultiCAS must not publish)", got)
	}
	if got := Load(nil, x); got != 7 {
		t.Fatalf("X = %d, want 7", got)
	}
	if x.claim.Load() != nil || z.claim.Load() != nil {
		t.Error("the failed MultiCAS left its claims behind")
	}
}

// spyEntry is a leg that reports to the test when the protocol asks it
// whether it writes and when the protocol moves its value.
type spyEntry struct {
	*Update[int]
	onWrites, onMove func()
}

func (s spyEntry) IsWrite() bool { s.onWrites(); return s.Update.IsWrite() }
func (s spyEntry) move()         { s.onMove(); s.Update.move() }

// TestDecisionMovesValues: the values move at the decision — by its winner,
// after the status flips, under the lock bits and before the commit version
// is drawn, so they are in place when the stamp unlocks the Vars — and the
// release phase touches no value: it only empties the claim slots. The bits
// are up before the flip, on every leg: once the descriptor says succeeded,
// whoever handles a write leg (the spy sees every such moment) finds its Var
// locked until its own stamp, so a helper that reports the success cannot be
// followed by a read of the old value; and the validation-only leg is locked
// too while the values move — no writer of it can be between its validation
// and its kill — and has its own old stamp back afterwards.
func TestDecisionMovesValues(t *testing.T) {
	d := NewDomain(0, 0)
	a, b, guard := NewVar(d, 1), NewVar(d, 2), NewVar(d, 3)
	Store(nil, guard, 3) // a stamp to keep
	clock := d.clock.Load()
	m := &MultiDesc{d: d}
	moves := 0
	spy := func(u *Update[int]) Entry {
		return spyEntry{u, func() {
			if m.status.Load() == mwSucceeded && u.IsWrite() && u.v.ver.Load()&verLocked == 0 {
				t.Errorf("Var %d: unlocked, unstamped, under a succeeded descriptor", u.v.id)
			}
		}, func() {
			moves++
			if m.status.Load() != mwSucceeded {
				t.Error("a value moved before the status flipped")
			}
			if d.clock.Load() != clock {
				t.Error("a value moved after the commit version was drawn")
			}
			for _, v := range []*Var[int]{a, b} {
				if v.ver.Load() != verLocked {
					t.Errorf("Var %d: word %#x while values move, want locked, unstamped", v.id, v.ver.Load())
				}
			}
			if guard.ver.Load() != clock|verLocked {
				t.Errorf("the validation-only leg's word is %#x while values move, want locked over its stamp %d", guard.ver.Load(), clock)
			}
		}}
	}
	m.entries = []Entry{spy(NewUpdate(a, 1, 10)), spy(NewUpdate(b, 2, 20)), spy(NewUpdate(guard, 3, 3))}
	m.claimAll()
	if m.status.Load() != mwUndecided || Load(nil, a) != 1 || Load(nil, b) != 2 {
		t.Fatal("claiming decided the descriptor or moved a value")
	}
	m.decide() // succeeded, but release phase not yet run
	if moves != 2 {
		t.Fatalf("%d values moved, want the two write legs", moves)
	}
	if Load(nil, a) != 10 || Load(nil, b) != 20 || Load(nil, guard) != 3 {
		t.Fatalf("after the decision: a=%d b=%d guard=%d, want 10, 20, 3", Load(nil, a), Load(nil, b), Load(nil, guard))
	}
	checkUnlocked(t, clock+1, a, b)
	checkUnlocked(t, clock, guard)
	pa, pb := a.loadP(), b.loadP()
	for _, v := range []*Var[int]{a, b, guard} {
		if v.claim.Load() != m {
			t.Fatalf("Var %d: the decision touched the claim slot", v.id)
		}
	}
	m.releaseAll()
	for _, v := range []*Var[int]{a, b, guard} {
		if v.claim.Load() != nil {
			t.Errorf("Var %d: still claimed after release", v.id)
		}
	}
	if a.loadP() != pa || b.loadP() != pb {
		t.Error("release stored a value word")
	}
	checkUnlocked(t, clock+1, a, b)
}

// TestClaimWaitsOutAWriter: a writer that looked at the claim slot before a
// claim was placed does not kill the descriptor, so the claimer's look must
// not take the value from under the writer's lock bit — the old one, about to
// be replaced. It waits, finds the new value and fails; a claimer that read
// under the bit would go on to decide, and install over a value it never
// compared.
func TestClaimWaitsOutAWriter(t *testing.T) {
	d := NewDomain(0, 0)
	a := NewVar(d, 1)
	// A direct Store of 2 by hand, stopped after its look at the empty slot.
	a.lock()
	a.kill()
	m := &MultiDesc{d: d, entries: []Entry{NewUpdate(a, 1, 10)}}
	done := make(chan struct{})
	go func() { defer close(done); m.help() }()
	for a.claim.Load() != m {
		runtime.Gosched()
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched() // the claimer is at its look, or past it
	}
	a.storeP(a.encode(2))
	a.ver.Store(d.clock.Add(1))
	<-done
	if got := m.status.Load(); got != mwFailed {
		t.Errorf("descriptor status = %d, want failed (%d)", got, mwFailed)
	}
	if got := Load(nil, a); got != 2 {
		t.Errorf("a = %d, want the writer's 2", got)
	}
}

func TestMultiValidate(t *testing.T) {
	d := NewDomain(0, 0)
	a, b := NewVar(d, 1), NewVar(d, 2)
	if !MultiValidate(NewUpdate(a, 1, 1), NewUpdate(b, 2, 2)) {
		t.Fatal("validation of current values failed")
	}
	if MultiValidate(NewUpdate(a, 1, 1), NewUpdate(b, 9, 9)) {
		t.Fatal("validation with stale value succeeded")
	}
	if !MultiValidate() {
		t.Fatal("empty validation must succeed")
	}
}

func TestNegativeCapacityForcesFallback(t *testing.T) {
	d := NewDomain(-1, -1)
	v := NewVar(d, uint64(0))
	if st := d.Atomically(func(tx *Tx) { Load(tx, v) }); st != AbortCapacity {
		t.Fatalf("read under zero capacity: %v, want AbortCapacity", st)
	}
	if st := d.Atomically(func(tx *Tx) { Store(tx, v, 1) }); st != AbortCapacity {
		t.Fatalf("write under zero capacity: %v, want AbortCapacity", st)
	}
	// Direct access is unaffected.
	Store(nil, v, 7)
	if Load(nil, v) != 7 {
		t.Fatal("direct path broken under zero capacity")
	}
}

// TestMultiCASConcurrentWithTransactions hammers two vars with transactional
// increments, direct CAS increments, and two-var MultiCAS increments; the
// pair must always move in lockstep (a+const == b) and totals must match.
func TestMultiCASConcurrentWithTransactions(t *testing.T) {
	d := NewDomain(0, 0)
	a, b := NewVar(d, uint64(0)), NewVar(d, uint64(1000000))
	nThreads := runtime.GOMAXPROCS(0)
	if nThreads < 4 {
		nThreads = 4
	}
	const perThread = 3000
	var commits atomic.Uint64
	var wg sync.WaitGroup
	for th := 0; th < nThreads; th++ {
		wg.Add(1)
		go func(kind int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				switch kind % 2 {
				case 0: // transactional paired increment
					st := d.Atomically(func(tx *Tx) {
						Store(tx, a, Load(tx, a)+1)
						Store(tx, b, Load(tx, b)+1)
					})
					if st == Committed {
						commits.Add(1)
					} else {
						i-- // retry until committed
					}
				case 1: // MultiCAS paired increment
					x, y := Load(nil, a), Load(nil, b)
					if MultiCAS(NewUpdate(a, x, x+1), NewUpdate(b, y, y+1)) {
						commits.Add(1)
					} else {
						i--
					}
				}
			}
		}(th)
	}
	wg.Wait()
	got, want := Load(nil, a), commits.Load()
	if got != want {
		t.Fatalf("a = %d, want %d (one per committed pair)", got, want)
	}
	if Load(nil, b) != want+1000000 {
		t.Fatalf("b = %d, want %d", Load(nil, b), want+1000000)
	}
}
