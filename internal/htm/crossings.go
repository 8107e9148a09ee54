package htm

// crossing names a phase boundary of a write protocol: a place where a
// preemption lets another goroutine see the protocol half done. Each is one
// perturb call in htm.go or multicas.go — nothing in the default build, a
// random yield and a test's schedule hook under the perturb build tag
// (perturb_on.go).
type crossing uint8

const (
	// Tx.commit.
	commitSorted    crossing = iota // write log in lock order, no bit taken
	commitLockedVar                 // some written Vars' bits taken, not all
	commitLocked                    // every written Var's bit taken, no version drawn
	commitDrawn                     // version drawn, nothing validated
	commitValidated                 // read log validated, no claim killed, no value stored

	// A direct Store, CAS or Add.
	directStored // claim killed, value stored, the Var still locked

	// A MultiCAS.
	claimPlaced  // the descriptor in a claim slot, the value not looked at
	mcasClaimed  // claim phase over, decision not begun
	mcasDecided  // decision over, no claim slot emptied
	decideLocked // every leg's bit taken, status not flipped
	decideWon    // status flipped, no value moved
	decideMoved  // values moved, no version drawn
	decideDrawn  // version drawn, no leg stamped

	// The quiet crossings: a writer with nothing half done any more, and a
	// waiter that yields anyway. A hook can run there; the random yield
	// passes them by, since nobody waits for what comes next and a yield
	// costs the suite a scheduler time slice.
	commitStamped // every written Var stamped
	directStamped // the Var stamped
	decideWaits   // a look that found a leg's bit taken by someone else

	numCrossings
)

// quietCrossings is the first of the quiet crossings.
const quietCrossings = commitStamped
