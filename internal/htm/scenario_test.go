//go:build perturb

package htm

import (
	"testing"
	"time"
)

// The scenarios in this file are schedules written out by hand: a hook armed
// at a named crossing (at) stops one goroutine there and runs the other party
// up to a known point, so an order the protocol leans on is tested by the one
// interleaving that breaks it, every run, and a failure names the crossing it
// was staged at.
//
//	go test -tags perturb -run Scenario -count=1 ./internal/htm/

var crossingNames = [numCrossings]string{
	commitSorted:    "commitSorted",
	commitLockedVar: "commitLockedVar",
	commitLocked:    "commitLocked",
	commitDrawn:     "commitDrawn",
	commitValidated: "commitValidated",
	commitStamped:   "commitStamped",
	directStored:    "directStored",
	directStamped:   "directStamped",
	claimPlaced:     "claimPlaced",
	mcasClaimed:     "mcasClaimed",
	mcasDecided:     "mcasDecided",
	decideWaits:     "decideWaits",
	decideLocked:    "decideLocked",
	decideWon:       "decideWon",
	decideMoved:     "decideMoved",
	decideDrawn:     "decideDrawn",
}

func (c crossing) String() string { return crossingNames[c] }

// at arms f at crossing c: the next goroutine to get there runs f, once,
// before it goes on. A scenario arms a crossing only one of its goroutines
// can reach first, so f runs at one known point of one known goroutine — and,
// the hook being taken off before f runs, whatever f itself drives through c
// passes.
func at(c crossing, f func()) { hooks[c].Store(&f) }

// disarm takes every hook off when the scenario ends, whichever were reached.
func disarm(t *testing.T) {
	t.Cleanup(func() {
		for c := range hooks {
			hooks[c].Store(nil)
		}
	})
}

// startDecision runs m.decide on a goroutine of its own and returns once that
// decision waits for a lock bit someone else holds, or is over; decided is
// closed when it is over.
func startDecision(m *MultiDesc) (decided chan struct{}) {
	decided = make(chan struct{})
	waiting := make(chan struct{})
	at(decideWaits, func() { close(waiting) })
	go func() { defer close(decided); m.decide() }()
	select {
	case <-waiting:
	case <-decided:
	}
	return decided
}

// TestScenarioDecisionBetweenValidationAndKill is
// TestWriteSkewAgainstGuardedMultiCAS by hand. T read y = 0 and writes x; M
// writes y guarded by a validation-only leg on x = 0 and is fully claimed. M's
// decision starts when T's commit has validated y and not yet killed the
// claim on x: it must not flip while the commit holds x — it waits for x's
// bit, a leg it does not write — and must be dead once the commit is over.
func TestScenarioDecisionBetweenValidationAndKill(t *testing.T) {
	disarm(t)
	d := NewDomain(0, 0)
	x, y, far := NewVar(d, 0), NewVar(d, 0), NewVar(d, 0)
	m := &MultiDesc{d: d, entries: []Entry{NewUpdate(x, 0, 0), NewUpdate(y, 0, 1)}}
	m.claimAll()
	var decided chan struct{}
	at(commitValidated, func() {
		decided = startDecision(m)
		if got := m.status.Load(); got != mwUndecided {
			t.Errorf("at %v: a decision begun while the commit holds x ended with status %d, want it waiting for x's bit, undecided", commitValidated, got)
		}
	})
	st := d.Atomically(func(tx *Tx) {
		if Load(tx, y) == 0 {
			Store(tx, x, 1)
		}
		Store(nil, far, 1) // someone else draws a version: the commit validates
	})
	if decided == nil {
		t.Fatalf("the commit never crossed %v", commitValidated)
	}
	<-decided
	if st != Committed || m.status.Load() != mwFailed {
		t.Errorf("at %v: commit %v, descriptor status %d, want committed and the descriptor failed", commitValidated, st, m.status.Load())
	}
	if gx, gy := Load(nil, x), Load(nil, y); gx != 1 || gy != 0 {
		t.Errorf("at %v: x=%d y=%d, want 1, 0: the commit that read y=0 and the MultiCAS guarded by x=0 both took effect", commitValidated, gx, gy)
	}
	checkUnlocked(t, d.clock.Load(), x)
	checkUnlocked(t, 0, y)
}

// TestScenarioWaitingDecisionTakesTheBitAtTheStamp: a decision that waits for
// a write leg's lock bit has it the moment the writer stamps the Var, and
// runs to its end before the writer's next step. The writer's kill of the
// claim therefore has to come before its stamp: a decision that gets the bit
// first finds the descriptor undecided, flips it and moves its own value over
// the writer's.
func TestScenarioWaitingDecisionTakesTheBitAtTheStamp(t *testing.T) {
	for _, w := range []struct {
		name            string
		locked, stamped crossing
		write           func(d *Domain, x *Var[int])
	}{
		{"direct Store", directStored, directStamped, func(d *Domain, x *Var[int]) { Store(nil, x, 7) }},
		{"commit", commitValidated, commitStamped, func(d *Domain, x *Var[int]) {
			d.Atomically(func(tx *Tx) { Store(tx, x, 7) })
		}},
	} {
		t.Run(w.name, func(t *testing.T) {
			disarm(t)
			d := NewDomain(0, 0)
			x := NewVar(d, 0)
			m := &MultiDesc{d: d, entries: []Entry{NewUpdate(x, 0, 1)}}
			m.claimAll()
			var decided chan struct{}
			at(w.locked, func() { decided = startDecision(m) })
			at(w.stamped, func() {
				if decided != nil {
					<-decided
				}
			})
			w.write(d, x)
			if decided == nil {
				t.Fatalf("the writer never crossed %v", w.locked)
			}
			<-decided
			if got := Load(nil, x); got != 7 {
				t.Errorf("at %v: x = %d, want the writer's 7: the decision that had waited for x's bit found the descriptor alive and installed over it", w.stamped, got)
			}
			if got := m.status.Load(); got != mwFailed {
				t.Errorf("at %v: descriptor status %d, want failed", w.stamped, got)
			}
			checkUnlocked(t, d.clock.Load(), x)
		})
	}
}

// TestScenarioCrossedCommits: T1 writes x then y, T2 writes y then x, and T2
// runs whole while T1 holds its first bit. Both take bits in Var-id order, so
// the first Var either looks at is x: T2 finds it taken and aborts at once,
// having touched nothing, and T1 commits. Exactly one aborts, none waits, no
// bit is left set.
func TestScenarioCrossedCommits(t *testing.T) {
	disarm(t)
	d := NewDomain(0, 0)
	x, y := NewVar(d, 0), NewVar(d, 0)
	t2 := Status(-1)
	at(commitLockedVar, func() {
		if x.ver.Load() != verLocked || y.ver.Load() != 0 {
			t.Errorf("at %v: T1 is between bits with x's word %#x and y's %#x, want x locked and y not", commitLockedVar, x.ver.Load(), y.ver.Load())
		}
		at(commitLockedVar, func() {
			t.Errorf("at %v: T2 took a bit before it looked at x, which T1 holds", commitLockedVar)
		})
		done := make(chan Status, 1)
		go func() {
			done <- d.Atomically(func(tx *Tx) {
				Store(tx, y, 2)
				Store(tx, x, 2)
			})
		}()
		select {
		case t2 = <-done:
		case <-time.After(time.Second):
			t.Errorf("at %v: T2 waits for a bit T1 holds", commitLockedVar)
		}
		if y.ver.Load() != 0 {
			t.Errorf("at %v: T2 left y's word %#x", commitLockedVar, y.ver.Load())
		}
	})
	t1 := d.Atomically(func(tx *Tx) {
		Store(tx, x, 1)
		Store(tx, y, 1)
	})
	if t1 != Committed || t2 != AbortConflict {
		t.Errorf("at %v: T1 %v, T2 %v, want T1 committed and T2 aborted on a conflict", commitLockedVar, t1, t2)
	}
	if gx, gy := Load(nil, x), Load(nil, y); gx != 1 || gy != 1 {
		t.Errorf("at %v: x=%d y=%d, want T1's 1, 1", commitLockedVar, gx, gy)
	}
	checkUnlocked(t, d.clock.Load(), x, y)
	if s := d.Stats(); s.Commits != 1 || s.Conflicts != 1 {
		t.Errorf("at %v: stats %+v, want one commit and one conflict", commitLockedVar, s)
	}
}
