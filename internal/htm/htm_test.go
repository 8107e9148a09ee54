package htm

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCommitMakesWritesVisible(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 0)
	y := NewVar(d, 0)
	st := d.Atomically(func(tx *Tx) {
		Store(tx, x, 1)
		Store(tx, y, 2)
	})
	if st != Committed {
		t.Fatalf("status = %v, want committed", st)
	}
	if got := Load(nil, x); got != 1 {
		t.Errorf("x = %d, want 1", got)
	}
	if got := Load(nil, y); got != 2 {
		t.Errorf("y = %d, want 2", got)
	}
}

func TestExplicitAbortDiscardsWrites(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 10)
	var code int
	st := d.Atomically(func(tx *Tx) {
		Store(tx, x, 99)
		tx.Abort(7)
	})
	if st != AbortExplicit {
		t.Fatalf("status = %v, want explicit abort", st)
	}
	_ = code
	if got := Load(nil, x); got != 10 {
		t.Errorf("x = %d after abort, want 10", got)
	}
}

func TestReadOwnWrites(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 5)
	st := d.Atomically(func(tx *Tx) {
		Store(tx, x, 6)
		if got := Load(tx, x); got != 6 {
			t.Errorf("read-own-write = %d, want 6", got)
		}
		Store(tx, x, 7)
		if got := Load(tx, x); got != 7 {
			t.Errorf("read-own-write after overwrite = %d, want 7", got)
		}
	})
	if st != Committed {
		t.Fatalf("status = %v", st)
	}
	if got := Load(nil, x); got != 7 {
		t.Errorf("x = %d, want 7", got)
	}
}

func TestTransactionalCASStrengthReduction(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 1)
	st := d.Atomically(func(tx *Tx) {
		if !CAS(tx, x, 1, 2) {
			t.Error("CAS with matching old failed")
		}
		if CAS(tx, x, 1, 3) {
			t.Error("CAS with stale old succeeded")
		}
	})
	if st != Committed || Load(nil, x) != 2 {
		t.Fatalf("status=%v x=%d, want committed/2", st, Load(nil, x))
	}
}

func TestNonTxCAS(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 1)
	if !CAS(nil, x, 1, 2) {
		t.Error("direct CAS with matching old failed")
	}
	if CAS(nil, x, 1, 3) {
		t.Error("direct CAS with stale old succeeded")
	}
	if Load(nil, x) != 2 {
		t.Errorf("x = %d, want 2", Load(nil, x))
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	d := NewDomain(0, 4)
	vars := make([]*Var[int], 8)
	for i := range vars {
		vars[i] = NewVar(d, 0)
	}
	st := d.Atomically(func(tx *Tx) {
		for i, v := range vars {
			Store(tx, v, i+1)
		}
	})
	if st != AbortCapacity {
		t.Fatalf("status = %v, want capacity abort", st)
	}
	for i, v := range vars {
		if Load(nil, v) != 0 {
			t.Errorf("vars[%d] leaked a buffered write", i)
		}
	}
}

func TestReadCapacityAbort(t *testing.T) {
	d := NewDomain(4, 0)
	vars := make([]*Var[int], 8)
	for i := range vars {
		vars[i] = NewVar(d, i)
	}
	st := d.Atomically(func(tx *Tx) {
		for _, v := range vars {
			Load(tx, v)
		}
	})
	if st != AbortCapacity {
		t.Fatalf("status = %v, want capacity abort", st)
	}
}

func TestRepeatedWritesToSameVarCountOnce(t *testing.T) {
	d := NewDomain(0, 2)
	x := NewVar(d, 0)
	st := d.Atomically(func(tx *Tx) {
		for i := 0; i < 100; i++ {
			Store(tx, x, i)
		}
	})
	if st != Committed || Load(nil, x) != 99 {
		t.Fatalf("status=%v x=%d, want committed/99", st, Load(nil, x))
	}
}

func TestConflictWithNonTransactionalWrite(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 0)
	y := NewVar(d, 0)
	st := d.Atomically(func(tx *Tx) {
		Load(tx, x)
		// A concurrent non-transactional write lands mid-transaction; strong
		// atomicity demands the transaction not commit with a stale view.
		Store(nil, x, 100)
		Store(tx, y, 1)
	})
	if st != AbortConflict {
		t.Fatalf("status = %v, want conflict abort", st)
	}
	if Load(nil, y) != 0 {
		t.Error("aborted transaction leaked a write")
	}
}

func TestReadOnlyTransactionConflict(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 0)
	st := d.Atomically(func(tx *Tx) {
		Load(tx, x)
		Store(nil, x, 1)
		Load(tx, x) // must observe the clock move and abort
	})
	if st != AbortConflict {
		t.Fatalf("status = %v, want conflict abort", st)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 0)
	d.Atomically(func(tx *Tx) { Store(tx, x, 1) })
	d.Atomically(func(tx *Tx) { tx.Abort(1) })
	s := d.Stats()
	if s.Commits != 1 || s.Explicit != 1 {
		t.Fatalf("stats = %+v, want 1 commit, 1 explicit", s)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Committed:     "committed",
		AbortConflict: "conflict",
		AbortCapacity: "capacity",
		AbortExplicit: "explicit",
		Status(99):    "Status(99)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestUserPanicPropagates(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("user panic was swallowed")
		}
		if Load(nil, x) != 0 {
			t.Error("panicking transaction leaked a write")
		}
	}()
	d.Atomically(func(tx *Tx) {
		Store(tx, x, 1)
		panic("user bug")
	})
}

func TestPointerVars(t *testing.T) {
	type node struct{ k int }
	d := NewDomain(0, 0)
	a, b := &node{1}, &node{2}
	v := NewVar(d, a)
	st := d.Atomically(func(tx *Tx) {
		if Load(tx, v) != a {
			t.Error("initial pointer load mismatch")
		}
		if !CAS(tx, v, a, b) {
			t.Error("pointer CAS failed")
		}
	})
	if st != Committed || Load(nil, v) != b {
		t.Fatal("pointer swap not visible after commit")
	}
}

// TestAtomicIncrementsConcurrent hammers a counter from many goroutines that
// mix transactional and direct increments; the total must be exact, which
// fails if commits are not atomic with respect to direct CAS.
func TestAtomicIncrementsConcurrent(t *testing.T) {
	d := NewDomain(0, 0)
	c := NewVar(d, uint64(0))
	const goroutines = 8
	const each = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if g%2 == 0 {
					for d.Atomically(func(tx *Tx) { Add(tx, c, 1) }) != Committed {
					}
				} else {
					Add(nil, c, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := Load(nil, c); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
}

// TestSnapshotConsistencyConcurrent maintains the invariant x == y via
// transactional writers while readers (both transactional and direct paired
// reads) check they never see the invariant broken mid-commit.
func TestSnapshotConsistencyConcurrent(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, uint64(0))
	y := NewVar(d, uint64(0))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			for d.Atomically(func(tx *Tx) {
				v := Load(tx, x)
				Store(tx, x, v+1)
				Store(tx, y, v+1)
			}) != Committed {
			}
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r%2 == 0 {
					var a, b uint64
					if d.Atomically(func(tx *Tx) {
						a = Load(tx, x)
						b = Load(tx, y)
					}) == Committed && a != b {
						t.Errorf("transactional reader saw x=%d y=%d", a, b)
						return
					}
				} else {
					// Direct reads are individually ordered against commits;
					// a pair may legally straddle one commit, so x may lag y
					// by the writes of at most the commits in between — but x
					// can never exceed y, because x is read first and both
					// move together.
					a := Load(nil, x)
					b := Load(nil, y)
					if a > b {
						t.Errorf("direct reader saw x=%d > y=%d", a, b)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestQuickTransactionalStoreLoad(t *testing.T) {
	d := NewDomain(0, 0)
	v := NewVar(d, uint64(0))
	f := func(x uint64) bool {
		st := d.Atomically(func(tx *Tx) { Store(tx, v, x) })
		return st == Committed && Load(nil, v) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
