package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file pin the per-Var versioned lock: who stamps it, who
// must not, who leaves it as found, and that judging reads and writes by it
// alone keeps transactions serializable and their bodies opaque.

// elsewhere runs f on another goroutine and waits for it: a writer "from
// outside" in the middle of a transaction body, without nesting attempts.
func elsewhere(f func()) {
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	<-done
}

// stampingWriters are the five ways a Var's value changes; each must leave
// the commit clock's new value in the Var's stamp.
var stampingWriters = []struct {
	name  string
	write func(d *Domain, a, side *Var[uint64])
}{
	{"tx commit", func(d *Domain, a, side *Var[uint64]) {
		elsewhere(func() { d.Atomically(func(tx *Tx) { Store(tx, a, Load(tx, a)+1) }) })
	}},
	{"direct Store", func(d *Domain, a, side *Var[uint64]) { Store(nil, a, 7) }},
	{"direct CAS", func(d *Domain, a, side *Var[uint64]) { CAS(nil, a, 1, 7) }},
	{"direct Add", func(d *Domain, a, side *Var[uint64]) { Add(nil, a, 6) }},
	{"MultiCAS write leg", func(d *Domain, a, side *Var[uint64]) {
		MultiCAS(NewUpdate(a, 1, 7), NewUpdate(side, 0, 0))
	}},
}

// TestWritersStampTheVar: after each kind of write the Var's stamp is the
// commit clock, a transaction that read the Var before the write aborts with
// a conflict at its next read of it, and one that does not read it again
// fails commit validation the same way.
func TestWritersStampTheVar(t *testing.T) {
	for _, w := range stampingWriters {
		t.Run(w.name, func(t *testing.T) {
			d := NewDomain(0, 0)
			a, side, out := NewVar(d, uint64(1)), NewVar(d, uint64(0)), NewVar(d, uint64(0))
			if a.ver.Load() != 0 {
				t.Fatalf("fresh Var stamped %d", a.ver.Load())
			}
			st := d.Atomically(func(tx *Tx) {
				Load(tx, a)
				w.write(d, a, side)
				Load(tx, a)
				t.Error("read survived a write to the same Var")
			})
			if st != AbortConflict {
				t.Fatalf("at the read: status = %v, want conflict", st)
			}
			if got, clock := a.ver.Load(), d.clock.Load(); got != clock || got == 0 {
				t.Fatalf("stamp = %d, commit clock = %d", got, clock)
			}
			if side.ver.Load() != 0 {
				t.Fatalf("a validation-only leg was stamped %d", side.ver.Load())
			}

			Store(nil, a, 1)
			st = d.Atomically(func(tx *Tx) {
				Load(tx, a)
				Store(tx, out, 1)
				w.write(d, a, side) // found by commit validation only
			})
			if st != AbortConflict {
				t.Fatalf("at commit: status = %v, want conflict", st)
			}
			if Load(nil, out) != 0 {
				t.Fatal("an aborted commit published")
			}
			if s := d.Stats(); s.Conflicts != 2 {
				t.Fatalf("stats = %+v, want two conflicts", s)
			}
		})
	}
}

// TestNonWritersDoNotStamp: a failed CAS, a validation-only MultiCAS leg, a
// MultiCAS that fails and a MultiValidate change no value, so they stamp
// nothing and a transaction that read the Var commits straight past them.
func TestNonWritersDoNotStamp(t *testing.T) {
	for _, c := range []struct {
		name string
		poke func(a, side *Var[uint64])
	}{
		{"failed CAS", func(a, side *Var[uint64]) {
			if CAS(nil, a, 99, 100) {
				t.Error("CAS against a wrong old value succeeded")
			}
		}},
		{"validation-only leg", func(a, side *Var[uint64]) {
			if !MultiCAS(NewUpdate(a, 1, 1), NewUpdate(side, 0, 5)) {
				t.Error("MultiCAS failed")
			}
		}},
		{"failed MultiCAS", func(a, side *Var[uint64]) {
			if MultiCAS(NewUpdate(a, 1, 2), NewUpdate(side, 99, 100)) {
				t.Error("MultiCAS against a wrong old value succeeded")
			}
		}},
		{"MultiValidate", func(a, side *Var[uint64]) {
			if !MultiValidate(NewUpdate(a, 1, 1)) {
				t.Error("MultiValidate failed")
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDomain(0, 0)
			a, side, out := NewVar(d, uint64(1)), NewVar(d, uint64(0)), NewVar(d, uint64(0))
			st := d.Atomically(func(tx *Tx) {
				Load(tx, a)
				c.poke(a, side)
				if Load(tx, a) != 1 {
					t.Error("value changed")
				}
				Store(tx, out, 1)
			})
			if st != Committed {
				t.Fatalf("status = %v, want commit past a non-write", st)
			}
			if a.ver.Load() != 0 {
				t.Fatalf("a non-write stamped the Var %d", a.ver.Load())
			}
		})
	}
}

// TestFailedWritersLeaveTheWordAsFound: a direct CAS that fails, a decision
// that loses its status CAS to a kill, and a deferring attempt that aborts on
// a pending descriptor change no value, and leave every involved Var's word
// unlocked with the stamp it had.
func TestFailedWritersLeaveTheWordAsFound(t *testing.T) {
	fixture := func(t *testing.T) (*Domain, *Var[int], *Var[int], uint64) {
		d := NewDomain(0, 0)
		x, y := NewVar(d, 0), NewVar(d, 0)
		Store(nil, x, 1)
		Store(nil, y, 1)
		Store(nil, x, 1) // x and y now carry different, non-zero stamps
		return d, x, y, d.clock.Load()
	}
	check := func(t *testing.T, d *Domain, x, y *Var[int], clock uint64) {
		t.Helper()
		checkUnlocked(t, clock, x)
		checkUnlocked(t, clock-1, y)
		if Load(nil, x) != 1 || Load(nil, y) != 1 || d.clock.Load() != clock {
			t.Errorf("x=%d y=%d clock=%d, want 1, 1, %d", Load(nil, x), Load(nil, y), d.clock.Load(), clock)
		}
	}

	t.Run("failed CAS", func(t *testing.T) {
		d, x, y, clock := fixture(t)
		if CAS(nil, x, 99, 100) {
			t.Fatal("CAS against a wrong old value succeeded")
		}
		check(t, d, x, y, clock)
	})

	t.Run("decision loses its status CAS", func(t *testing.T) {
		d, x, y, clock := fixture(t)
		m := &MultiDesc{d: d, entries: []Entry{NewUpdate(x, 1, 2), NewUpdate(y, 1, 2)}}
		m.claimAll()
		// The decision passes its first look at the status, takes x's bit and
		// waits for y's; then the descriptor dies under it.
		y.lock()
		done := make(chan struct{})
		go func() { defer close(done); m.decide() }()
		for x.ver.Load()&verLocked == 0 {
			runtime.Gosched()
		}
		if !m.status.CompareAndSwap(mwUndecided, mwFailed) {
			t.Fatal("the descriptor was decided with a bit of its held by someone else")
		}
		<-done
		if y.ver.Load() != clock-1|verLocked {
			t.Fatalf("y's word is %#x: a decision that left touched a bit it did not hold", y.ver.Load())
		}
		y.unlockVer()
		m.releaseAll()
		check(t, d, x, y, clock)
	})
}

// TestReadThenWrittenVarValidatesOnItsOldStamp: at validation a Var the
// attempt read and then wrote carries the attempt's own lock bit; it is
// judged by the stamp under the bit — it passes when that is no newer than
// the snapshot, and fails when a foreign Store landed between the read and
// the commit.
func TestReadThenWrittenVarValidatesOnItsOldStamp(t *testing.T) {
	d := NewDomain(0, 0)
	a, far := NewVar(d, 0), NewVar(d, 0)
	Store(nil, a, 1) // a non-zero stamp under the snapshot
	st := d.Atomically(func(tx *Tx) {
		Store(tx, a, Load(tx, a)+1)
		Store(nil, far, 5) // someone else commits: validation will run
	})
	if st != Committed || Load(nil, a) != 2 {
		t.Fatalf("status = %v, a = %d, want committed, 2", st, Load(nil, a))
	}
	checkUnlocked(t, d.clock.Load(), a)

	var foreign uint64
	st = d.Atomically(func(tx *Tx) {
		Store(tx, a, Load(tx, a)+1)
		elsewhere(func() { Store(nil, a, 9) })
		foreign = d.clock.Load()
	})
	if st != AbortConflict {
		t.Fatalf("status = %v, want conflict", st)
	}
	if Load(nil, a) != 9 {
		t.Fatalf("a = %d, want the foreign 9", Load(nil, a))
	}
	checkUnlocked(t, foreign, a)
}

// TestWriteSkew: T1 reads x and writes y, T2 reads y and writes x. Each
// guards its write on the other's Var being zero, so a serial order sets
// exactly one of them. Both can hold their written Var's lock bit at once,
// each with a timestamp drawn, and what stops the pair is validation refusing
// a read Var that someone else has locked — which is why the lock bits are
// taken before the timestamp is drawn. First by hand — T2 runs whole between
// T1's read and T1's commit — then hammered (the build tag perturb yields
// between the phases, which is what lines the two commits up on one CPU).
func TestWriteSkew(t *testing.T) {
	d := NewDomain(0, 0)
	x, y := NewVar(d, 0), NewVar(d, 0)
	guarded := func(read, write *Var[int], between func()) Status {
		return d.Atomically(func(tx *Tx) {
			if Load(tx, read) == 0 {
				if between != nil {
					between()
				}
				Store(tx, write, 1)
			}
		})
	}
	st := guarded(x, y, func() {
		elsewhere(func() {
			if st := guarded(y, x, nil); st != Committed {
				t.Errorf("T2 alone: %v", st)
			}
		})
	})
	if st != AbortConflict || Load(nil, x) != 1 || Load(nil, y) != 0 {
		t.Fatalf("T1 = %v with x=%d y=%d, want a conflict abort and x=1 y=0", st, Load(nil, x), Load(nil, y))
	}

	for round := 0; round < 2000; round++ {
		Store(nil, x, 0)
		Store(nil, y, 0)
		var wg sync.WaitGroup
		for _, p := range [][2]*Var[int]{{x, y}, {y, x}} {
			wg.Add(1)
			go func(read, write *Var[int]) {
				defer wg.Done()
				for guarded(read, write, nil) != Committed {
				}
			}(p[0], p[1])
		}
		wg.Wait()
		if gx, gy := Load(nil, x), Load(nil, y); gx+gy != 1 {
			t.Fatalf("round %d: x=%d y=%d: both or neither of a write-skew pair committed its write", round, gx, gy)
		}
	}
}

// TestWriteSkewAgainstGuardedMultiCAS is the write skew with a MultiCAS for
// one side: T reads y and, finding 0, writes x = 1; M installs y = 1 guarded
// by a validation-only leg on x still being 0, retried while it is. A serial
// order sets exactly one of x and y. What keeps the pair apart is that M's
// decision and T's commit exclude each other on x, which M does not write: a
// decision that flips between T's validation and T's kill of the claim on x,
// and moves y while T stores x, sets both. A third goroutine's direct Stores
// elsewhere keep drawing versions, so T's commits validate instead of taking
// the wv == rv+1 shortcut; the build tag perturb yields between the phases,
// which is what lines decision and commit up on one CPU.
func TestWriteSkewAgainstGuardedMultiCAS(t *testing.T) {
	d := NewDomain(0, 0)
	x, y, far := NewVar(d, 0), NewVar(d, 0), NewVar(d, 0)
	var stop atomic.Bool
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; !stop.Load(); i++ {
			Store(nil, far, i)
			runtime.Gosched()
		}
	}()
	defer bg.Wait()
	defer stop.Store(true)
	for round := 0; round < 20000; round++ {
		Store(nil, x, 0)
		Store(nil, y, 0)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for d.Atomically(func(tx *Tx) {
				if Load(tx, y) == 0 {
					Store(tx, x, 1)
				}
			}) != Committed {
			}
		}()
		go func() {
			defer wg.Done()
			for Load(nil, x) == 0 && !MultiCAS(NewUpdate(x, 0, 0), NewUpdate(y, 0, 1)) {
			}
		}()
		wg.Wait()
		if gx, gy := Load(nil, x), Load(nil, y); gx+gy != 1 {
			t.Fatalf("round %d: x=%d y=%d: the commit that read y=0 and the MultiCAS guarded by x=0 both took effect, or neither", round, gx, gy)
		}
	}
}

// TestOpacityUnderEveryWriter hammers a and b with transfers by transaction
// and by MultiCAS, plus direct writes to unrelated Vars. A transaction body
// that has read both a and b must never see their sum broken, not even in an
// attempt that is going to abort; direct reads that pass MultiValidate
// likewise.
func TestOpacityUnderEveryWriter(t *testing.T) {
	const total = 1000
	d := NewDomain(0, 0)
	a, b, c := NewVar(d, total), NewVar(d, 0), NewVar(d, 0)
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	const rounds = 3000
	spawn := func(wg *sync.WaitGroup, f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds && !stop.Load(); i++ {
				f(i)
			}
		}()
	}
	spawn(&writers, func(i int) { // transactional transfer
		for d.Atomically(func(tx *Tx) {
			x := Load(tx, a)
			Store(tx, a, x-1)
			Store(tx, b, Load(tx, b)+1)
		}) != Committed {
		}
	})
	spawn(&writers, func(i int) { // MultiCAS transfer back
		for {
			x, y := Load(nil, a), Load(nil, b)
			if MultiCAS(NewUpdate(a, x, x+1), NewUpdate(b, y, y-1)) {
				return
			}
		}
	})
	spawn(&writers, func(i int) { Store(nil, c, i) }) // read beside a and b, unrelated
	spawn(&writers, func(i int) { Add(nil, NewVar(d, uint64(0)), 1) })
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				d.Atomically(func(tx *Tx) {
					x := Load(tx, a)
					Load(tx, c)
					if y := Load(tx, b); x+y != total {
						t.Errorf("a body saw a=%d b=%d", x, y)
						stop.Store(true)
					}
				})
				x, y := Load(nil, a), Load(nil, b)
				if MultiValidate(NewUpdate(a, x, x), NewUpdate(b, y, y)) && x+y != total {
					t.Errorf("MultiValidate passed a=%d b=%d", x, y)
					stop.Store(true)
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if x, y := Load(nil, a), Load(nil, b); x+y != total {
		t.Fatalf("a=%d b=%d at quiescence", x, y)
	}
}
