package mcas

import "testing"

// White-box tests staging an in-flight (undecided) descriptor on a word so
// that Load, Store, and CAS must help it to completion — the paths a quiet
// single-threaded run never takes.

// stageDescriptor installs an undecided DCAS descriptor claiming both words
// (as a stalled peer would leave it) and returns it.
func stageDescriptor(t *testing.T, w1, w2 *Word, o1, n1, o2, n2 uint64) *descriptor {
	t.Helper()
	d := &descriptor{entries: make([]entry, 2)}
	d.entries[0] = entry{w: w1, old: o1, new: n1}
	d.entries[1] = entry{w: w2, old: o2, new: n2}
	if w2.id < w1.id {
		d.entries[0], d.entries[1] = d.entries[1], d.entries[0]
	}
	for i := range d.entries {
		e := &d.entries[i]
		b := e.w.p.Load()
		if b.val != e.old || b.desc != nil {
			t.Fatal("staging claim failed")
		}
		if !e.w.p.CompareAndSwap(b, &box{val: e.old, desc: d}) {
			t.Fatal("staging CAS failed")
		}
	}
	return d
}

func TestLoadHelpsStalledDescriptor(t *testing.T) {
	a, b := NewWord(1), NewWord(2)
	stageDescriptor(t, a, b, 1, 10, 2, 20)
	if got := a.Load(); got != 10 {
		t.Fatalf("a = %d after helping, want 10", got)
	}
	if got := b.Load(); got != 20 {
		t.Fatalf("b = %d after helping, want 20", got)
	}
}

func TestStoreHelpsStalledDescriptor(t *testing.T) {
	a, b := NewWord(1), NewWord(2)
	stageDescriptor(t, a, b, 1, 10, 2, 20)
	a.Store(99) // must help first, then overwrite
	if got := a.Load(); got != 99 {
		t.Fatalf("a = %d, want 99", got)
	}
	if got := b.Load(); got != 20 {
		t.Fatalf("b = %d (helped leg), want 20", got)
	}
}

func TestCASHelpsStalledDescriptor(t *testing.T) {
	a, b := NewWord(1), NewWord(2)
	stageDescriptor(t, a, b, 1, 10, 2, 20)
	if a.CAS(1, 5) {
		t.Fatal("CAS with pre-help expected value succeeded after helping")
	}
	if !a.CAS(10, 11) {
		t.Fatal("CAS with post-help expected value failed")
	}
	if got := a.Load(); got != 11 {
		t.Fatalf("a = %d, want 11", got)
	}
}

func TestDCASHelpsCompetingDescriptor(t *testing.T) {
	a, b, c := NewWord(1), NewWord(2), NewWord(3)
	stageDescriptor(t, a, b, 1, 10, 2, 20)
	// A DCAS overlapping word b must help the stalled one first; with the
	// stalled DCAS committed, b is 20 and this one succeeds.
	if !DCAS(b, 20, 21, c, 3, 30) {
		t.Fatal("overlapping DCAS failed after helping")
	}
	if a.Load() != 10 || b.Load() != 21 || c.Load() != 30 {
		t.Fatalf("a=%d b=%d c=%d", a.Load(), b.Load(), c.Load())
	}
}

// TestLateHelperCannotReclaimDecidedWord stages the helper that arrives
// late: it has seen the descriptor undecided and stalled before loading the
// word. Meanwhile the descriptor is decided and released, and both words get
// their old values back in fresh boxes. When the helper resumes and claims,
// the claim must not attach the decided descriptor to the word, or the
// transfer would be applied a second time.
func TestLateHelperCannotReclaimDecidedWord(t *testing.T) {
	a, b := NewWord(1), NewWord(2)
	d := &descriptor{entries: []entry{{w: a, old: 1, new: 10}, {w: b, old: 2, new: 20}}}
	d.help() // another helper decides and releases while ours is stalled
	if d.status.Load() != succeeded || a.Load() != 10 || b.Load() != 20 {
		t.Fatalf("staging DCAS: status=%d a=%d b=%d", d.status.Load(), a.Load(), b.Load())
	}
	a.Store(1)
	b.Store(2)
	d.claim(a, a.p.Load()) // the late helper resumes and claims
	if got := a.Load(); got != 1 {
		t.Fatalf("a = %d after the late claim, want 1: the decided DCAS applied twice", got)
	}
	if got := b.Load(); got != 2 {
		t.Fatalf("b = %d after the late claim, want 2", got)
	}
}
