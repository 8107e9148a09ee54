package htm

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/israce"
)

// The tests in this file pin the hygiene of the pooled Tx: every attempt
// starts from a Tx that carries nothing of the attempt before it, however
// that one ended. They run on one goroutine, so (outside -race, where
// sync.Pool drops values at random) the very Tx under suspicion comes back.

// checkFresh fails unless tx looks like the first attempt of a new Tx.
func checkFresh(t *testing.T, tx *Tx) {
	t.Helper()
	if len(tx.writeLog) != 0 || len(tx.writeIdx) != 0 || tx.written != 0 {
		t.Errorf("recycled Tx carries a write log: log=%d idx=%d filter=%#x",
			len(tx.writeLog), len(tx.writeIdx), tx.written)
	}
	for _, sl := range tx.writeIdx[:cap(tx.writeIdx)] {
		if sl != (idxSlot{}) {
			t.Errorf("recycled Tx's write index still holds Var %d at log position %d", sl.id, sl.pos)
			break
		}
	}
	if tx.reads != 0 || len(tx.readLog) != 0 {
		t.Errorf("recycled Tx carries reads=%d readLog=%d", tx.reads, len(tx.readLog))
	}
	for _, h := range tx.readLog[:cap(tx.readLog)] {
		if h != nil {
			t.Errorf("recycled Tx's read log still pins Var %d", h.id)
			break
		}
	}
	for _, e := range tx.writeLog[:cap(tx.writeLog)] {
		if e.h != nil || e.p != nil {
			t.Errorf("recycled Tx's write log still pins a Var or its value")
			break
		}
	}
}

// TestRecycleResetsEveryField fills every field of a Tx, recycles it and
// expects a zero Tx but for its slices' capacity. recycle resets the fields
// one by one, so a field added to Tx needs a reset there and a value here;
// the field count says so first.
func TestRecycleResetsEveryField(t *testing.T) {
	if n := reflect.TypeOf(Tx{}).NumField(); n != 10 {
		t.Fatalf("Tx has %d fields; recycle resets, and this test fills, 10", n)
	}
	d := NewDomain(0, 0)
	v := NewVar(d, 1)
	tx := &Tx{
		d: d, rv: 1,
		reads: 1, readLog: []*varHead{&v.varHead},
		writeLog: []writeEntry{{h: &v.varHead, p: unsafe.Pointer(v)}},
		writeIdx: []idxSlot{{id: v.id, pos: 1}}, written: 1,
		readCap: 1, writeCap: 1, aborted: AbortExplicit,
	}
	readLog, writeLog, writeIdx := tx.readLog, tx.writeLog, tx.writeIdx
	tx.recycle()
	want := Tx{readLog: readLog[:0], writeLog: writeLog[:0], writeIdx: writeIdx[:0]}
	if !reflect.DeepEqual(*tx, want) || cap(tx.readLog) != 1 || cap(tx.writeLog) != 1 || cap(tx.writeIdx) != 1 {
		t.Errorf("recycled Tx = %+v, want %+v with the capacity kept", *tx, want)
	}
	if readLog[0] != nil || writeLog[0] != (writeEntry{}) || writeIdx[0] != (idxSlot{}) {
		t.Errorf("recycled Tx's logs still pin a Var: read %v, write %+v, index %+v", readLog[0], writeLog[0], writeIdx[0])
	}
}

func TestPoolAbortedWritesDoNotLeak(t *testing.T) {
	endings := []struct {
		name string
		want Status
		end  func(tx *Tx, x, y *Var[int])
	}{
		{"explicit", AbortExplicit, func(tx *Tx, x, y *Var[int]) {
			Store(tx, x, 99)
			tx.Abort(3)
		}},
		{"capacity", AbortCapacity, func(tx *Tx, x, y *Var[int]) {
			Store(tx, x, 99)
			Store(tx, y, 99) // write capacity is 1
		}},
		{"commit-conflict", AbortConflict, func(tx *Tx, x, y *Var[int]) {
			Load(tx, y)
			Store(tx, x, 99)
			Store(nil, y, 8) // invalidates the read of y; found at commit
		}},
	}
	for _, e := range endings {
		t.Run(e.name, func(t *testing.T) {
			d := NewDomain(0, 1)
			x, y := NewVar(d, 10), NewVar(d, 7)
			if st := d.Atomically(func(tx *Tx) { e.end(tx, x, y) }); st != e.want {
				t.Fatalf("first attempt ended %v, want %v", st, e.want)
			}
			st := d.Atomically(func(tx *Tx) {
				checkFresh(t, tx)
				if got := Load(tx, x); got != 10 {
					t.Errorf("x = %d in the next attempt, want the committed 10", got)
				}
				if len(tx.writeLog) != 0 || tx.written != 0 {
					t.Errorf("a Load grew the write log")
				}
			})
			if st != Committed {
				t.Fatalf("read-only follow-up ended %v", st)
			}
			if got := Load(nil, x); got != 10 {
				t.Errorf("x = %d after the aborted write, want 10", got)
			}
		})
	}
}

// TestPoolReadLogPinsNothing: the read log is recycled with its capacity
// and without its contents, however the attempt that filled it ended — a
// pooled Tx must not keep the Vars of a finished walk reachable, nor judge
// the next attempt by their stamps.
func TestPoolReadLogPinsNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("under the race detector sync.Pool drops values at random")
	}
	d := NewDomain(0, 0)
	vars := make([]*Var[int], 300)
	for i := range vars {
		vars[i] = NewVar(d, i)
	}
	out := NewVar(d, 0)
	walk := func(tx *Tx) {
		for _, v := range vars {
			Load(tx, v)
		}
		if len(tx.readLog) != len(vars) {
			t.Errorf("read log holds %d entries after %d reads", len(tx.readLog), len(vars))
		}
	}
	for name, end := range map[string]func(tx *Tx){
		"commit":   func(tx *Tx) { Store(tx, out, 1) },
		"readonly": func(tx *Tx) {},
		"explicit": func(tx *Tx) { tx.Abort(1) },
		"conflict": func(tx *Tx) { Store(nil, vars[7], -1); Load(tx, vars[7]) },
		"at-commit": func(tx *Tx) {
			Store(tx, out, 2)
			Store(nil, vars[9], -1)
		},
	} {
		var walked *Tx
		d.Atomically(func(tx *Tx) { walked = tx; walk(tx); end(tx) })
		st := d.Atomically(func(tx *Tx) {
			checkFresh(t, tx)
			// Under -tags perturb a yield inside the walk's attempt can
			// move this goroutine to another P, whose pool then hands out
			// some other test's Tx: only the walk's own can show its capacity.
			if tx == walked && cap(tx.readLog) < len(vars) {
				t.Errorf("after %s: read log capacity %d, want the walk's %d kept", name, cap(tx.readLog), len(vars))
			}
			// One write from outside to a Var of the old walk: a stale log
			// entry would fail this attempt's validation.
			Store(nil, vars[3], -2)
			Store(tx, out, 3)
		})
		if st != Committed {
			t.Errorf("after %s: the next attempt ended %v, judged by a read it never made", name, st)
		}
	}
}

type poolNode struct{ k int }

// stageTwice stores a then b to v in one attempt, checks the attempt reads
// back b (the typed read-own-write through the staged value word) and that b is
// what commits.
func stageTwice[T comparable](t *testing.T, d *Domain, v *Var[T], a, b T) {
	t.Helper()
	st := d.Atomically(func(tx *Tx) {
		Store(tx, v, a)
		if got := Load(tx, v); got != a {
			t.Errorf("read-own-write = %v, want %v", got, a)
		}
		Store(tx, v, b)
		if got := Load(tx, v); got != b {
			t.Errorf("read after write-after-write = %v, want %v", got, b)
		}
		if len(tx.writeLog) != 1 || tx.reads != 0 {
			t.Errorf("two stores to one Var: log=%d reads=%d, want 1 and 0", len(tx.writeLog), tx.reads)
		}
	})
	if st != Committed {
		t.Fatalf("status = %v", st)
	}
	if got := Load(nil, v); got != b {
		t.Errorf("committed %v, want the last staged value %v", got, b)
	}
}

func TestPoolWriteAfterWriteTyped(t *testing.T) {
	d := NewDomain(0, 0)
	n1, n2 := &poolNode{1}, &poolNode{2}
	stageTwice(t, d, NewVar(d, "init"), "a", "b")
	stageTwice(t, d, NewVar[*poolNode](d, nil), n1, n2)
	stageTwice(t, d, NewVar[*poolNode](d, n1), n2, nil)
	stageTwice(t, d, NewVar(d, uint64(0)), 1<<63, 42)
}

func TestPoolForeignPanicLeavesNextAttemptClean(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 1)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the body's own panic", r)
			}
		}()
		d.Atomically(func(tx *Tx) {
			Load(tx, x)
			Store(tx, x, 99)
			panic("boom")
		})
	}()
	st := d.Atomically(func(tx *Tx) {
		checkFresh(t, tx)
		Store(tx, x, Load(tx, x)+1)
	})
	if st != Committed || Load(nil, x) != 2 {
		t.Fatalf("after a foreign panic: status=%v x=%d, want committed/2", st, Load(nil, x))
	}
}

// TestPoolCapacityLimitsExact: a maximal attempt grows every recycled
// buffer past any limit a later attempt runs under; the limits are still
// the configured ones, to the operation.
func TestPoolCapacityLimitsExact(t *testing.T) {
	d := NewDomain(0, 0)
	vars := make([]*Var[int], DefaultReadCap+1)
	for i := range vars {
		vars[i] = NewVar(d, i)
	}
	run := func(reads, writes int) Status {
		return d.Atomically(func(tx *Tx) {
			for _, v := range vars[:reads] {
				Load(tx, v)
			}
			for _, v := range vars[:writes] {
				Store(tx, v, -1)
			}
		})
	}
	for _, c := range []struct {
		readCap, writeCap, reads, writes int
		want                             Status
	}{
		{0, 0, DefaultReadCap, DefaultWriteCap, Committed},
		{0, 0, DefaultReadCap + 1, 0, AbortCapacity},
		{0, 0, 0, DefaultWriteCap + 1, AbortCapacity},
		{2, 1, 2, 1, Committed},
		{2, 1, 3, 0, AbortCapacity},
		{2, 1, 0, 2, AbortCapacity},
		{-1, -1, 1, 0, AbortCapacity},
		{-1, -1, 0, 1, AbortCapacity},
	} {
		d.SetCapacity(c.readCap, c.writeCap)
		if st := run(c.reads, c.writes); st != c.want {
			t.Errorf("caps (%d,%d), %d reads, %d writes: %v, want %v",
				c.readCap, c.writeCap, c.reads, c.writes, st, c.want)
		}
	}
}

// TestPoolStaleTxPanics: a Tx retained past its attempt is detached, and
// every operation through it panics with the engine's own message — not an
// abort signal an enclosing attempt would swallow, and never a write into
// the log of whichever attempt owns the Tx next.
func TestPoolStaleTxPanics(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 1)
	var stale *Tx
	d.Atomically(func(tx *Tx) { stale = tx })
	for name, use := range map[string]func(){
		"Load":  func() { Load(stale, x) },
		"Store": func() { Store(stale, x, 2) },
		"CAS":   func() { CAS(stale, x, 1, 2) },
		"Abort": func() { stale.Abort(1) },
	} {
		func() {
			defer func() {
				if r, ok := recover().(string); !ok || r != "htm: Tx used after its attempt returned" {
					t.Errorf("%s through a stale Tx: recovered %v", name, r)
				}
			}()
			use()
			t.Errorf("%s through a stale Tx returned", name)
		}()
	}
	if len(stale.writeLog) != 0 || Load(nil, x) != 1 {
		t.Errorf("a stale Tx took a write")
	}
}
