package sim

import "testing"

// cloneImage builds a set-up machine whose memory spans several pages: a
// region of three pages plus a line, every word holding its own address, one
// word rewritten by a committed set-up transaction.
func cloneImage(t *testing.T) (*Machine, Addr, int) {
	t.Helper()
	m := New(DefaultConfig(1))
	th := m.Thread(0)
	n := 3*pageWords + LineWords
	a := th.Alloc(n)
	for i := 0; i < n; i++ {
		th.Store(a+Addr(i), uint64(a)+uint64(i))
	}
	if st := th.Atomic(func() { th.Store(a, 7) }); st != OK {
		t.Fatalf("set-up transaction: %v", st)
	}
	return m, a, n
}

// cloneWorkload runs every kind of access on c: set-up mode first (loads,
// stores, a CAS, a committed and an aborted transaction), then a run whose
// threads load every line of the region, store, CAS, commit and abort
// transactions on it. Only loads, when loadsOnly.
func cloneWorkload(c *Machine, a Addr, n int, loadsOnly bool) {
	th := c.Thread(0)
	for i := 0; i < n; i += LineWords {
		th.Load(a + Addr(i))
	}
	if !loadsOnly {
		th.Store(a+1, 1)
		th.CAS(a+2, uint64(a)+2, 2)
		th.Atomic(func() { th.Store(a+3, 3) })
		th.Atomic(func() { th.Store(a+4, 4); th.TxAbort(1) })
	}
	c.Run(func(t *Thread) {
		for i := t.ID() * LineWords; i < n; i += 4 * LineWords {
			t.Load(a + Addr(i))
		}
		if loadsOnly {
			return
		}
		w := a + Addr(pageWords*(t.ID()%3)+LineWords)
		t.Store(w, 10)
		t.CAS(w+1, uint64(w)+1, 11)
		t.Atomic(func() { t.Store(w+2, 12) })
		t.Atomic(func() { t.Store(w+3, 13); t.TxAbort(1) })
	})
}

// TestCloneLeavesImageUnchanged: whatever a clone does, in set-up mode or
// in a run, reads included (a load writes the directory), the image's words
// and directory entries stay as they were, and a later clone starts from
// them; what the image writes after cloning does not reach its clones.
func TestCloneLeavesImageUnchanged(t *testing.T) {
	for _, loadsOnly := range []bool{true, false} {
		img, a, n := cloneImage(t)
		before := img.Digest()
		c := img.Clone(DefaultConfig(4), nil)
		if got := c.Digest(); got != before {
			t.Fatalf("a fresh clone's digest %x, want the image's %x", got, before)
		}
		cloneWorkload(c, a, n, loadsOnly)
		if c.Digest() == before {
			t.Fatalf("loadsOnly=%v: the workload left the clone's memory unchanged; the test checks nothing", loadsOnly)
		}
		if got := img.Digest(); got != before {
			t.Fatalf("loadsOnly=%v: the image's digest moved from %x to %x under its clone", loadsOnly, before, got)
		}
		if got := img.Clone(DefaultConfig(2), nil).Digest(); got != before {
			t.Fatalf("loadsOnly=%v: a second clone's digest %x, want %x", loadsOnly, got, before)
		}
	}

	img, a, _ := cloneImage(t)
	c := img.Clone(DefaultConfig(2), nil)
	img.Thread(0).Store(a+5, 99)
	if got := c.Thread(0).Load(a + 5); got != uint64(a)+5 {
		t.Fatalf("the clone reads %d after the image wrote 99, want %d", got, uint64(a)+5)
	}
	if got := c.Thread(0).Load(a); got != 7 {
		t.Fatalf("the clone reads %d at the committed word, want 7", got)
	}
}

// TestCloneReusesFinishedClone: a clone that takes a finished clone's page
// buffers starts from the image, not from what the finished one left in
// them, finds a page past the image blank, and the finished clone panics on
// its next use.
func TestCloneReusesFinishedClone(t *testing.T) {
	img, a, n := cloneImage(t)
	before := img.Digest()
	c1 := img.Clone(DefaultConfig(4), nil)
	cloneWorkload(c1, a, n, false)
	fresh := c1.Thread(0).Alloc(2*pageWords) + pageWords // in a page the image never had
	c1.Thread(0).Store(fresh, 5)

	c2 := img.Clone(DefaultConfig(4), c1)
	if got := c2.Digest(); got != before {
		t.Fatalf("a clone reusing buffers has digest %x, want the image's %x", got, before)
	}
	for i := 0; i < n; i++ {
		if got, want := c2.Thread(0).Load(a+Addr(i)), img.Thread(0).Load(a+Addr(i)); got != want {
			t.Fatalf("word %d reads %d in the clone, %d in the image", i, got, want)
		}
	}
	if got := c2.Thread(0).Load(fresh); got != 0 {
		t.Fatalf("a page past the image reads %d in a reusing clone, want 0", got)
	}
	if got := c2.Digest(); got != before {
		t.Fatalf("after touching a page past the image, the reusing clone's digest is %x, want %x: the page is not blank", got, before)
	}
	if got := img.Digest(); got != before {
		t.Fatalf("the image's digest moved from %x to %x", before, got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a machine whose buffers were reused can still be used")
		}
	}()
	c1.Thread(0).Load(a)
}

// TestCloneCarriesSetupState: the clone starts at the image's allocation
// frontier and stats, and a thread both machines have keeps its random
// stream, so it draws what the image's thread would draw next.
func TestCloneCarriesSetupState(t *testing.T) {
	img, _, _ := cloneImage(t)
	img.Thread(0).Rand()
	c := img.Clone(DefaultConfig(3), nil)
	if got, want := c.Thread(0).Alloc(1), img.Thread(0).Alloc(1); got != want {
		t.Fatalf("clone allocates at %d, image at %d", got, want)
	}
	if got, want := c.Thread(0).Rand(), img.Thread(0).Rand(); got != want {
		t.Fatalf("thread 0 draws %d in the clone, %d in the image", got, want)
	}
	if got, want := c.Thread(2).Rand(), New(DefaultConfig(3)).Thread(2).Rand(); got != want {
		t.Fatalf("thread 2, which the image lacks, draws %d, want a fresh machine's %d", got, want)
	}
	if c.Stats() != img.Stats() {
		t.Fatalf("clone stats %+v, image stats %+v", c.Stats(), img.Stats())
	}
}
