package txnops_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/mound"
	"repro/internal/msqueue"
	"repro/internal/skiplist"
	"repro/internal/txn"
)

// mustPanicContaining runs f and requires it to panic with a string message
// containing want.
func mustPanicContaining(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want message containing %q", r, want)
		}
	}()
	f()
}

// TestRegistryDuplicatePanics pins the registration contract: a second
// structure under an already-taken name is a driver bug and must panic, with
// the class and name in the message; the same name is free across classes
// (a set "x" and a queue "x" coexist — lookups are per class).
func TestRegistryDuplicatePanics(t *testing.T) {
	m := txn.New(0)
	reg := m.Structures()
	h := hashtable.NewPTOTableIn(m.Domain(), 4, 0)
	q := msqueue.NewPTOIn(m.Domain(), 0)
	p := mound.NewPTOIn(m.Domain(), 8, 0)
	reg.AddSet("x", h)
	reg.AddQueue("x", q) // cross-class reuse is allowed
	reg.AddPQ("x", p)

	mustPanicContaining(t, `duplicate set "x"`, func() {
		reg.AddSet("x", skiplist.NewPTOSetIn(m.Domain(), 0))
	})
	mustPanicContaining(t, `duplicate queue "x"`, func() {
		reg.AddQueue("x", msqueue.NewPTOIn(m.Domain(), 0))
	})
	mustPanicContaining(t, `duplicate pq "x"`, func() {
		reg.AddPQ("x", mound.NewPTOIn(m.Domain(), 8, 0))
	})

	if reg.Set("x") == nil || reg.Queue("x") == nil || reg.PQ("x") == nil {
		t.Fatal("registered structures lost after duplicate panics")
	}
}

// TestRegistryNamesSorted pins that the name enumerations are sorted
// regardless of registration order — /statz, the fuzz drivers, and the
// decision-parity tests all depend on a deterministic iteration order.
func TestRegistryNamesSorted(t *testing.T) {
	m := txn.New(0)
	reg := m.Structures()
	for _, n := range []string{"cold", "aux", "hot"} {
		reg.AddSet(n, hashtable.NewPTOTableIn(m.Domain(), 4, 0))
	}
	if got, want := reg.SetNames(), []string{"aux", "cold", "hot"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SetNames = %v, want %v", got, want)
	}
	reg.AddQueue("zq", msqueue.NewPTOIn(m.Domain(), 0))
	reg.AddQueue("aq", msqueue.NewPTOIn(m.Domain(), 0))
	if got, want := reg.QueueNames(), []string{"aq", "zq"}; !reflect.DeepEqual(got, want) {
		t.Errorf("QueueNames = %v, want %v", got, want)
	}
	reg.AddPQ("zp", mound.NewPTOIn(m.Domain(), 8, 0))
	reg.AddPQ("ap", mound.NewPTOIn(m.Domain(), 8, 0))
	if got, want := reg.PQNames(), []string{"ap", "zp"}; !reflect.DeepEqual(got, want) {
		t.Errorf("PQNames = %v, want %v", got, want)
	}
}

// TestRegistryLookupDuringAdd pins the snapshot rule: a lookup takes no lock
// and never sees a half-made registry — a name is either not there yet or
// bound to the structure it was registered with, and a name registered
// before the lookups began is there throughout. Run it under -race.
func TestRegistryLookupDuringAdd(t *testing.T) {
	m := txn.New(0)
	reg := m.Structures()
	first := hashtable.NewPTOTableIn(m.Domain(), 4, 0)
	reg.AddSet("s0", first)
	const adds = 64
	names := make([]string, adds)
	tables := make([]*hashtable.PTOTable, adds)
	for i := range names {
		names[i], tables[i] = fmt.Sprintf("t%d", i), hashtable.NewPTOTableIn(m.Domain(), 4, 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for reg.Set(names[adds-1]) == nil {
				if reg.Set("s0") != first {
					t.Error("a set registered before the lookups began went missing")
					return
				}
				for i, n := range names {
					if s := reg.Set(n); s != nil && s != tables[i] {
						t.Errorf("set %q bound to another structure", n)
						return
					}
				}
			}
		}()
	}
	for i, n := range names {
		reg.AddSet(n, tables[i])
		if reg.Set(n) != tables[i] {
			t.Errorf("set %q not visible after AddSet returned", n)
		}
	}
	wg.Wait()
	if got := len(reg.SetNames()); got != adds+1 {
		t.Errorf("%d sets registered, want %d", got, adds+1)
	}
}
