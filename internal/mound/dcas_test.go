package mound

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/israce"
)

// The baseline's DCAS and DCSS over versioned node words. A word's list
// index stands for its contents; every write bumps the version, as the
// Mound's own writes do.

// next is w's successor word holding list index idx.
func next(w uint64, idx uint32) uint64 { return Bump(w, false, idx) }

// stage publishes op and claims both of its words, as an owner that stalls
// right after its claims leaves them.
func stage(t *testing.T, b *lockfreeBackend, op dcasOp) {
	t.Helper()
	d := b.descs.get().d
	m := marker(d.slot, d.publish(&op))
	for i, id := range op.id {
		if !b.words[id].CompareAndSwap(op.old[i], m) {
			t.Fatal("staging claim failed")
		}
	}
}

// incr adds one to the list index of words x and y with one DCAS each,
// retrying until n have succeeded.
func incr(b *lockfreeBackend, x, y, n int) {
	for i := 0; i < n; i++ {
		for {
			xv, yv := b.Load(x), b.Load(y)
			if b.DCAS(x, xv, next(xv, Ref(xv)+1), y, yv, next(yv, Ref(yv)+1)) {
				break
			}
		}
	}
}

// TestDCAS runs each case on fresh words 0..3 holding list indices 1..4 at
// version 0.
func TestDCAS(t *testing.T) {
	w := func(idx uint32) uint64 { return pack(0, false, idx) }
	// stalled moves words 0 and 1 to indices 10 and 20.
	stalled := dcasOp{id: [2]int{0, 1}, old: [2]uint64{w(1), w(2)}, new: [2]uint64{next(w(1), 10), next(w(2), 20)}}
	cases := []struct {
		name string
		run  func(t *testing.T, b *lockfreeBackend)
	}{
		{"LoadCAS", func(t *testing.T, b *lockfreeBackend) {
			if got := b.Load(0); got != w(1) {
				t.Fatalf("load = %#x, want %#x", got, w(1))
			}
			if !b.CAS(0, w(1), next(w(1), 7)) || b.Load(0) != next(w(1), 7) {
				t.Fatal("matching CAS failed")
			}
			if b.CAS(0, w(1), next(w(1), 8)) {
				t.Fatal("stale CAS succeeded")
			}
		}},
		{"BothMatch", func(t *testing.T, b *lockfreeBackend) {
			if !b.DCAS(0, w(1), next(w(1), 10), 1, w(2), next(w(2), 20)) {
				t.Fatal("DCAS with both legs matching failed")
			}
			if b.Load(0) != next(w(1), 10) || b.Load(1) != next(w(2), 20) {
				t.Fatalf("words %#x %#x after DCAS", b.Load(0), b.Load(1))
			}
		}},
		{"FirstMismatch", func(t *testing.T, b *lockfreeBackend) {
			if b.DCAS(0, w(9), next(w(9), 10), 1, w(2), next(w(2), 20)) {
				t.Fatal("DCAS succeeded with its first leg stale")
			}
			if b.Load(0) != w(1) || b.Load(1) != w(2) {
				t.Fatalf("words %#x %#x changed by a DCAS that claimed nothing", b.Load(0), b.Load(1))
			}
		}},
		{"SecondMismatch", func(t *testing.T, b *lockfreeBackend) {
			// Legs passed out of node order: the DCAS claims word 0 first.
			if b.DCAS(1, w(9), next(w(9), 20), 0, w(1), next(w(1), 10)) {
				t.Fatal("DCAS succeeded with its second leg stale")
			}
			// The claimed word keeps its contents under a renewed version.
			if b.Load(0) != renew(w(1)) || b.Load(1) != w(2) {
				t.Fatalf("words %#x %#x after a failed DCAS", b.Load(0), b.Load(1))
			}
		}},
		{"DCSS", func(t *testing.T, b *lockfreeBackend) {
			if !b.DCSS(0, w(1), 1, w(2), next(w(2), 20)) {
				t.Fatal("DCSS with a matching guard failed")
			}
			if b.Load(0) != renew(w(1)) || b.Load(1) != next(w(2), 20) {
				t.Fatalf("guard %#x target %#x after DCSS", b.Load(0), b.Load(1))
			}
			if b.DCSS(0, w(1), 1, next(w(2), 20), next(w(2), 30)) {
				t.Fatal("DCSS with a stale guard succeeded")
			}
			if b.Load(1) != next(w(2), 20) {
				t.Fatal("failed DCSS wrote its target")
			}
		}},
		{"VsConcurrentCAS", func(t *testing.T, b *lockfreeBackend) {
			const n = 3000
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				incr(b, 0, 1, n)
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					for v := b.Load(0); !b.CAS(0, v, next(v, Ref(v)+1)); v = b.Load(0) {
					}
				}
			}()
			wg.Wait()
			if Ref(b.Load(0)) != 1+2*n || Ref(b.Load(1)) != 2+n {
				t.Fatalf("indices %d %d, want %d %d", Ref(b.Load(0)), Ref(b.Load(1)), 1+2*n, 2+n)
			}
		}},
		{"Overlapping", func(t *testing.T, b *lockfreeBackend) {
			const n = 2000
			var wg sync.WaitGroup
			for _, p := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
				wg.Add(1)
				go func(x, y int) {
					defer wg.Done()
					incr(b, x, y, n)
				}(p[0], p[1])
			}
			wg.Wait()
			for id := 0; id < 3; id++ {
				if got, want := Ref(b.Load(id)), uint32(id+1+2*n); got != want {
					t.Fatalf("word %d index %d, want %d", id, got, want)
				}
			}
		}},
		{"QuickSpec", func(t *testing.T, _ *lockfreeBackend) {
			// A failed DCAS keeps each word's contents; only a word whose
			// old value matched may have its version renewed.
			f := func(i1, i2 uint32, stale1, stale2, swap bool) bool {
				b := newLockfreeBackend(2)
				b.words[0].Store(w(i1))
				b.words[1].Store(w(i2))
				o1, o2 := w(i1), w(i2)
				if stale1 {
					o1 = renew(o1)
				}
				if stale2 {
					o2 = renew(o2)
				}
				n1, n2 := next(w(i1), i1+1), next(w(i2), i2+1)
				var ok bool
				if swap {
					ok = b.DCAS(1, o2, n2, 0, o1, n1)
				} else {
					ok = b.DCAS(0, o1, n1, 1, o2, n2)
				}
				if ok != (!stale1 && !stale2) {
					return false
				}
				if ok {
					return b.Load(0) == n1 && b.Load(1) == n2
				}
				g1 := b.Load(0)
				return (g1 == w(i1) || !stale1 && g1 == renew(w(i1))) && b.Load(1) == w(i2)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		}},
		{"LoadHelpsStalled", func(t *testing.T, b *lockfreeBackend) {
			stage(t, b, stalled)
			if got := b.Load(1); got != next(w(2), 20) {
				t.Fatalf("word 1 = %#x after helping, want %#x", got, next(w(2), 20))
			}
			if got := b.Load(0); got != next(w(1), 10) {
				t.Fatalf("word 0 = %#x after helping, want %#x", got, next(w(1), 10))
			}
		}},
		{"CASHelpsStalled", func(t *testing.T, b *lockfreeBackend) {
			stage(t, b, stalled)
			if b.CAS(0, w(1), next(w(1), 5)) {
				t.Fatal("CAS with the pre-help value succeeded after helping")
			}
			if !b.CAS(0, next(w(1), 10), next(w(1), 11)) {
				t.Fatal("CAS with the post-help value failed")
			}
			if b.Load(1) != next(w(2), 20) {
				t.Fatal("the helped DCAS did not release its other word")
			}
		}},
		{"HelpsCompeting", func(t *testing.T, b *lockfreeBackend) {
			stage(t, b, stalled)
			// A DCAS overlapping word 1 helps the stalled one first, and
			// then finds word 1 at the stalled DCAS's new value.
			if !b.DCAS(1, next(w(2), 20), next(w(2), 21), 2, w(3), next(w(3), 30)) {
				t.Fatal("overlapping DCAS failed after helping")
			}
			if b.Load(0) != next(w(1), 10) || b.Load(2) != next(w(3), 30) {
				t.Fatalf("words %#x %#x", b.Load(0), b.Load(2))
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			b := newLockfreeBackend(4)
			for id := 0; id < 4; id++ {
				b.words[id].Store(w(uint32(id + 1)))
			}
			c.run(t, b)
		})
	}
}

// TestDCASTransfersConserveSum runs concurrent DCAS transfers between
// accounts held in list indices; the total must be conserved exactly,
// which fails if a DCAS is not atomic or a helper applies one twice.
func TestDCASTransfersConserveSum(t *testing.T) {
	const nAccounts, perThread = 8, 2000
	b := newLockfreeBackend(nAccounts)
	for id := range b.words {
		b.words[id].Store(pack(0, false, 1000))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := uint64(g)*2654435761 + 1
			for i := 0; i < perThread; i++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				from := int(rnd>>33) % nAccounts
				to := (from + 1 + int(rnd>>17)%(nAccounts-1)) % nAccounts
				for {
					fv, tv := b.Load(from), b.Load(to)
					if Ref(fv) == 0 {
						break
					}
					if b.DCAS(from, fv, next(fv, Ref(fv)-1), to, tv, next(tv, Ref(tv)+1)) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	sum := 0
	for id := range b.words {
		sum += int(Ref(b.Load(id)))
	}
	if sum != nAccounts*1000 {
		t.Fatalf("sum = %d, want %d", sum, nAccounts*1000)
	}
}

// TestLateHelperCannotReclaimDecidedWord stages the helper that arrives
// late: it read a DCAS's descriptor, saw it undecided and stalled before
// its claim, while the DCAS was decided and released. The fields it read
// are the slot's fields still, as an owner writes them once. When it
// resumes, its claim CAS(old, marker) must fail on every leg, whatever the
// outcome: a marker that outlived its DCAS would name a slot that has
// moved on, and no thread could release it.
func TestLateHelperCannotReclaimDecidedWord(t *testing.T) {
	w := func(idx uint32) uint64 { return pack(0, false, idx) }
	cases := []struct {
		name string
		op   func(b *lockfreeBackend) bool
		want bool
	}{
		{"DCAS", func(b *lockfreeBackend) bool { return b.DCAS(0, w(1), next(w(1), 10), 1, w(2), next(w(2), 20)) }, true},
		{"DCSS", func(b *lockfreeBackend) bool { return b.DCSS(0, w(1), 1, w(2), next(w(2), 20)) }, true},
		{"FailedDCAS", func(b *lockfreeBackend) bool { return b.DCAS(0, w(1), next(w(1), 10), 1, w(9), next(w(9), 20)) }, false},
	}
	for _, c := range cases {
		b := newLockfreeBackend(2)
		b.words[0].Store(w(1))
		b.words[1].Store(w(2))
		if got := c.op(b); got != c.want {
			t.Fatalf("%s: staging returned %v", c.name, got)
		}
		d := (*b.descs.slots.Load())[0] // a fresh backend's first DCAS runs in slot 0
		seq := d.status.Load() >> 2
		op, ok := d.snapshot(seq)
		if !ok || op.id != [2]int{0, 1} {
			t.Fatalf("%s: slot 0 holds %+v", c.name, op)
		}
		before := [2]uint64{b.words[0].Load(), b.words[1].Load()}
		for i, id := range op.id {
			if b.words[id].CompareAndSwap(op.old[i], marker(d.slot, seq)) {
				t.Fatalf("%s: the late helper claimed word %d for a decided DCAS", c.name, id)
			}
		}
		if after := [2]uint64{b.Load(0), b.Load(1)}; after != before {
			t.Fatalf("%s: words %#x after the late claim, want %#x", c.name, after, before)
		}
	}
}

// TestDCASAllocatesNothing pins the baseline's uncontended DCAS and DCSS
// at zero allocations: words hold markers, not boxes, and descriptor slots
// are reused.
func TestDCASAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops values at random under -race")
	}
	b := newLockfreeBackend(3)
	for name, op := range map[string]func(){
		"DCAS": func() {
			x, y := b.Load(1), b.Load(2)
			b.DCAS(1, x, next(x, 1), 2, y, next(y, 2))
		},
		"DCSS": func() {
			g, x := b.Load(1), b.Load(2)
			b.DCSS(1, g, 2, x, next(x, 3))
		},
	} {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}
