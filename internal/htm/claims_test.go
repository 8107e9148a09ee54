package htm

import (
	"reflect"
	"strings"
	"testing"
)

// The tests in this file pin what the claim slot means now that it is not
// the value's box: a claim vouches for nothing until its finder has looked
// at the value, and a decided descriptor's claim means nothing at all.

// TestVarLayout: a Var is five words, and the three a read touches — id, the
// versioned lock, the value word — are next to each other.
func TestVarLayout(t *testing.T) {
	ty := reflect.TypeFor[Var[*int]]()
	if ty.Size() > 40 || reflect.TypeFor[Var[[4]uint64]]().Size() != ty.Size() {
		t.Errorf("Var is %d bytes (%d for a 32-byte T), want at most 40 whatever T", ty.Size(), reflect.TypeFor[Var[[4]uint64]]().Size())
	}
	h := reflect.TypeFor[varHead]()
	off := func(name string) uintptr { f, _ := h.FieldByName(name); return f.Offset }
	if off("ver") != off("id")+8 || off("p") != off("ver")+8 {
		t.Errorf("id, ver, p at offsets %d, %d, %d, want adjacent words", off("id"), off("ver"), off("p"))
	}
}

// TestInlineIsDecidedByType: the value word is the value exactly for pointer
// types, and either way a Var reads back what was stored, nil included.
func TestInlineIsDecidedByType(t *testing.T) {
	type node struct{ k int }
	d := NewDomain(0, 0)
	n := &node{1}
	pv, iv, sv, av := NewVar(d, n), NewVar(d, 7), NewVar(d, "s"), NewVar[any](d, n)
	for name, c := range map[string]struct {
		h      *varHead
		inline bool
	}{"*node": {&pv.varHead, true}, "int": {&iv.varHead, false}, "string": {&sv.varHead, false}, "any": {&av.varHead, false}} {
		if got := c.h.id&idInline != 0; got != c.inline {
			t.Errorf("Var[%s]: inline = %v, want %v", name, got, c.inline)
		}
	}
	if pv.loadP() != reflect.ValueOf(n).UnsafePointer() {
		t.Error("a pointer Var's value word is not the pointer")
	}
	Store(nil, pv, nil)
	if pv.loadP() != nil || Load(nil, pv) != nil {
		t.Error("a nil pointer did not round-trip as a nil value word")
	}
	if Load(nil, iv) != 7 || Load(nil, sv) != "s" || Load(nil, av) != any(n) {
		t.Error("a boxed Var did not read back its initial value")
	}
}

// TestHelperChecksAClaimItDidNotPlace: claim and value check are two steps,
// so between them a second helper can find the claim standing. It must look
// at the value for itself: here the first helper placed its claim on a Var
// that never held the leg's old value and stopped, and the second helper
// fails the descriptor instead of deciding on a leg nobody checked.
func TestHelperChecksAClaimItDidNotPlace(t *testing.T) {
	d := NewDomain(0, 0)
	a, b := NewVar(d, 1), NewVar(d, 5)
	m := &MultiDesc{d: d, entries: []Entry{NewUpdate(a, 1, 10), NewUpdate(b, 2, 20)}}
	a.claim.Store(m)
	b.claim.Store(m) // placed; the value look never happened
	m.help()
	if got := m.status.Load(); got != mwFailed {
		t.Fatalf("descriptor status = %d, want failed (%d): a helper trusted a claim it found", got, mwFailed)
	}
	if Load(nil, a) != 1 || Load(nil, b) != 5 {
		t.Fatalf("a=%d b=%d, want 1, 5", Load(nil, a), Load(nil, b))
	}
	if a.claim.Load() != nil || b.claim.Load() != nil {
		t.Error("the helper left the failed descriptor's claims behind")
	}
	checkUnlocked(t, 0, a, b)
}

// TestStaleClaimIsTransparent: a decided descriptor's claim — left by a
// helper that was slow to release, or put back by one that was slow to
// claim — is nothing to a reader or to pendingDesc (a deferring attempt
// commits through it), survives a writer, which has nothing to kill, and is
// overwritten by the next claimer, whose release leaves the slot empty.
func TestStaleClaimIsTransparent(t *testing.T) {
	for name, decided := range map[string]uint32{"succeeded": mwSucceeded, "failed": mwFailed} {
		t.Run(name, func(t *testing.T) {
			d := NewDomain(0, 0)
			a, out := NewVar(d, 1), NewVar(d, 0)
			stale := &MultiDesc{d: d, entries: []Entry{NewUpdate(a, 0, 99)}}
			stale.status.Store(decided)
			a.claim.Store(stale)

			if a.pendingDesc() != nil {
				t.Error("pendingDesc reports a decided descriptor")
			}
			if st := d.Atomically(func(tx *Tx) { Store(tx, out, Load(tx, a)) }); st != Committed || Load(nil, out) != 1 {
				t.Errorf("a reader through a stale claim: %v, read %d, want committed, 1", st, Load(nil, out))
			}
			if !MultiValidate(NewUpdate(a, 1, 1)) {
				t.Error("MultiValidate through a stale claim failed")
			}
			if st := d.AtomicallyDeferring(func(tx *Tx) { Store(tx, a, 2) }); st != Committed {
				t.Errorf("a deferring writer met a stale claim: %v, want committed", st)
			}
			Store(nil, a, 3)
			if !CAS(nil, a, 3, 4) {
				t.Error("a direct CAS through a stale claim failed")
			}
			if a.claim.Load() != stale || stale.status.Load() != decided {
				t.Error("a writer cleared a stale claim or touched its descriptor")
			}
			if !MultiCAS(NewUpdate(a, 4, 5)) || Load(nil, a) != 5 {
				t.Errorf("the next claimer did not get past a stale claim: a = %d", Load(nil, a))
			}
			if a.claim.Load() != nil {
				t.Error("the next claimer's release left the slot taken")
			}
		})
	}
}

// TestTransactionsDoNotSpanDomains: a Var bound to another domain is stamped
// from that domain's clock, so a transaction that logged it would judge it by
// the wrong snapshot and stamp it with a version its own readers cannot
// judge. Reading or writing one
// panics, as MultiCAS and MultiValidate do, and leaves both domains as they
// were.
func TestTransactionsDoNotSpanDomains(t *testing.T) {
	for name, access := range map[string]func(tx *Tx, foreign *Var[int]){
		"Load":  func(tx *Tx, foreign *Var[int]) { Load(tx, foreign) },
		"Store": func(tx *Tx, foreign *Var[int]) { Store(tx, foreign, 9) },
		"CAS":   func(tx *Tx, foreign *Var[int]) { CAS(tx, foreign, 1, 9) },
	} {
		t.Run(name, func(t *testing.T) {
			a, b := NewDomain(0, 0), NewDomain(0, 0)
			own, foreign := NewVar(a, 0), NewVar(b, 1)
			func() {
				defer func() {
					if r, _ := recover().(string); !strings.Contains(r, "span domains") {
						t.Errorf("recovered %q, want the span-domains panic", r)
					}
				}()
				st := a.Atomically(func(tx *Tx) {
					Store(tx, own, 1)
					access(tx, foreign)
				})
				t.Errorf("the attempt ended %v", st)
			}()
			if foreign.ver.Load() != 0 || b.clock.Load() != 0 || a.clock.Load() != 0 || Load(nil, foreign) != 1 || Load(nil, own) != 0 {
				t.Errorf("after the panic: foreign word %#x = %d, clocks %d and %d, own = %d",
					foreign.ver.Load(), Load(nil, foreign), a.clock.Load(), b.clock.Load(), Load(nil, own))
			}
			if st := b.Atomically(func(tx *Tx) { Store(tx, foreign, Load(tx, foreign)+1) }); st != Committed {
				t.Errorf("the Var's own domain afterwards: %v", st)
			}
		})
	}
}
