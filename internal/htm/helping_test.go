package htm

import "testing"

// park stages a MultiCAS descriptor over the given entries and claims each
// cell without deciding, leaving the descriptor undecided on every cell —
// the occupied-fallback state a speculating thread collides with when a
// slow-path operation is preempted mid-flight.
func park(t *testing.T, d *Domain, entries ...Entry) *MultiDesc {
	t.Helper()
	m := &MultiDesc{d: d, entries: entries}
	for _, e := range entries {
		res, _ := m.claim(e)
		if res != claimOK {
			t.Fatalf("park: claim result %d", res)
		}
	}
	if m.status.Load() != mwUndecided {
		t.Fatal("park: descriptor not undecided")
	}
	return m
}

// TestMiddleHelpsParkedDescriptor is the occupied-fallback adversary in
// miniature: an undecided MultiCAS descriptor is parked on X and Z, and a
// budgeted (middle-level) transaction writes X. The transaction must help
// the descriptor to a successful decision — not kill it — so the parked
// operation's other leg (Z) lands too: zero lost updates. The fast path
// (budget 0) on the same state kills the descriptor, the historical
// kill-paid-by-commit rule, which is the contrast the middle tier exists to
// avoid.
func TestMiddleHelpsParkedDescriptor(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 5)
	z := NewVar(d, 1)
	m := park(t, d, NewUpdate(x, 5, 6), NewUpdate(z, 1, 2))

	st, helped := d.AtomicallyHelping(4, func(tx *Tx) {
		Store(tx, x, 7)
	})
	if st != Committed {
		t.Fatalf("middle attempt: %v, want commit", st)
	}
	if helped != 1 {
		t.Fatalf("helped = %d, want 1", helped)
	}
	if got := m.status.Load(); got != mwSucceeded {
		t.Fatalf("descriptor status = %d, want succeeded (%d)", got, mwSucceeded)
	}
	// The helped MultiCAS applied both legs (X: 5→6, Z: 1→2), then the
	// transaction's own write overwrote X. Z is the lost-update witness.
	if got := Load[int](nil, z); got != 2 {
		t.Fatalf("Z = %d, want 2 (helped leg lost)", got)
	}
	if got := Load[int](nil, x); got != 7 {
		t.Fatalf("X = %d, want 7 (transaction write lost)", got)
	}
}

// TestFastKillsParkedDescriptor pins the contrast: the same parked state
// under a budget-0 (fast path) transaction kills the undecided descriptor at
// commit, so the parked operation fails and its other leg never lands.
func TestFastKillsParkedDescriptor(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 5)
	z := NewVar(d, 1)
	m := park(t, d, NewUpdate(x, 5, 6), NewUpdate(z, 1, 2))

	st := d.Atomically(func(tx *Tx) {
		Store(tx, x, 7)
	})
	if st != Committed {
		t.Fatalf("fast attempt: %v, want commit", st)
	}
	if got := m.status.Load(); got != mwFailed {
		t.Fatalf("descriptor status = %d, want failed (%d)", got, mwFailed)
	}
	if got := Load[int](nil, z); got != 1 {
		t.Fatalf("Z = %d, want 1 (failed MultiCAS must not publish)", got)
	}
	if got := Load[int](nil, x); got != 7 {
		t.Fatalf("X = %d, want 7", got)
	}
}

// TestHelpBudgetExhaustionAborts parks more descriptors than the helping
// budget allows: the attempt helps exactly budget of them, then aborts
// explicitly with code HelpExhausted, leaving the remaining descriptor
// undecided and unharmed (no kill without a paying commit).
func TestHelpBudgetExhaustionAborts(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 10)
	y := NewVar(d, 20)
	m1 := park(t, d, NewUpdate(x, 10, 11))
	m2 := park(t, d, NewUpdate(y, 20, 21))

	st, helped := d.AtomicallyHelping(1, func(tx *Tx) {
		Store(tx, x, 30)
		Store(tx, y, 40)
	})
	if st != AbortExplicit {
		t.Fatalf("over-budget attempt: %v, want explicit abort", st)
	}
	if helped != 1 {
		t.Fatalf("helped = %d, want exactly the budget (1)", helped)
	}
	decided := 0
	if m1.status.Load() != mwUndecided {
		decided++
	}
	if m2.status.Load() != mwUndecided {
		decided++
	}
	if decided != 1 {
		t.Fatalf("decided descriptors = %d, want 1 (budget) with the other parked", decided)
	}
	// The aborted attempt published nothing of its own; the helped
	// descriptor's value is the only change.
	gx, gy := Load[int](nil, x), Load[int](nil, y)
	if gx == 30 || gy == 40 {
		t.Fatalf("aborted attempt leaked writes: X=%d Y=%d", gx, gy)
	}
}

// TestDeferringAbortsWithoutKill pins the fast level's behavior inside a
// three-path composition: a deferring transaction (budget 0, deferPending)
// that collides with a parked undecided descriptor aborts explicitly with
// code HelpExhausted — it neither kills the descriptor (the two-path rule)
// nor helps it (the middle tier's job) — and publishes nothing of its own.
func TestDeferringAbortsWithoutKill(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 5)
	z := NewVar(d, 1)
	m := park(t, d, NewUpdate(x, 5, 6), NewUpdate(z, 1, 2))

	st := d.AtomicallyDeferring(func(tx *Tx) {
		Store(tx, x, 7)
	})
	if st != AbortExplicit {
		t.Fatalf("deferring attempt: %v, want explicit abort", st)
	}
	if got := m.status.Load(); got != mwUndecided {
		t.Fatalf("descriptor status = %d, want undecided (%d): defer must not kill", got, mwUndecided)
	}
	if gx, gz := Load[int](nil, x), Load[int](nil, z); gx != 5 || gz != 1 {
		t.Fatalf("state (X=%d, Z=%d), want (5, 1): aborted attempt leaked writes", gx, gz)
	}
	// The deferred-to middle tier can still complete the parked operation:
	// the descriptor survived intact.
	st2, helped := d.AtomicallyHelping(1, func(tx *Tx) {
		Store(tx, x, 9)
	})
	if st2 != Committed || helped != 1 {
		t.Fatalf("middle after defer: %v helped=%d, want commit with 1 help", st2, helped)
	}
	if got := Load[int](nil, z); got != 2 {
		t.Fatalf("Z = %d, want 2 (deferred descriptor's leg must land)", got)
	}
}

// TestHelpingStressDeterministic is the deterministic stress form: a chain
// of park → help cycles over a small Var set, alternating which cells the
// descriptor and the transaction overlap on. Every cycle must decide the
// parked descriptor successfully and preserve both parties' updates, so the
// final values are exactly predictable after N cycles.
func TestHelpingStressDeterministic(t *testing.T) {
	const cycles = 200
	d := NewDomain(0, 0)
	a := NewVar(d, 0)
	b := NewVar(d, 0)
	c := NewVar(d, 0)

	av, bv, cv := 0, 0, 0
	for i := 0; i < cycles; i++ {
		// The parked operation moves a+1 into a and b+1 into b; the
		// transaction blind-writes a (overlapping the descriptor, so the
		// commit's helping pass fires) and independently bumps c. The write
		// to a must be blind: reading a would put it — which the help stamps
		// — in the read set and correctly conflict-abort the helper's own
		// attempt.
		m := park(t, d, NewUpdate(a, av, av+1), NewUpdate(b, bv, bv+1))
		want := (i + 1) * 10
		st, helped := d.AtomicallyHelping(2, func(tx *Tx) {
			Store(tx, a, want)
			Store(tx, c, Load(tx, c)+1)
		})
		if st != Committed {
			t.Fatalf("cycle %d: %v, want commit", i, st)
		}
		if helped != 1 {
			t.Fatalf("cycle %d: helped = %d, want 1", i, helped)
		}
		if m.status.Load() != mwSucceeded {
			t.Fatalf("cycle %d: parked descriptor not helped to success", i)
		}
		// The helped +1 is overwritten on a by the commit but must survive
		// on b — the zero-lost-updates invariant, every cycle.
		av, bv, cv = want, bv+1, cv+1
		if ga, gb, gc := Load[int](nil, a), Load[int](nil, b), Load[int](nil, c); ga != av || gb != bv || gc != cv {
			t.Fatalf("cycle %d: state (%d,%d,%d), want (%d,%d,%d)", i, ga, gb, gc, av, bv, cv)
		}
	}
}
