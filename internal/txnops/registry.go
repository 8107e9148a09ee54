package txnops

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the registration surface of one composition layer: every
// structure participating in composed operations is registered once, under a
// name, with its capability. Drivers (the conservation fuzzers, benchmark
// arms) then enumerate structures generically — "every
// registered set pair", "a PQ and a set" — instead of hard-wiring one code
// path per structure. Registration is not required for correctness (the
// algorithms take interfaces directly); it exists so that adding a structure
// to a substrate is one AddSet call, not a diff across every driver.
//
// Registration happens at build time, before the structures are shared;
// lookups during a run are read-only, safe for concurrent use and take no
// lock: a lookup loads the current snapshot, which is never written again,
// and Add* publishes a new one with the one map it changes copied.
type Registry[C Ctx, K comparable] struct {
	mu   sync.Mutex // serializes Add*
	snap atomic.Pointer[bindings[C, K]]
}

// bindings is one immutable snapshot of a Registry.
type bindings[C Ctx, K comparable] struct {
	sets   map[string]Set[C, K]
	queues map[string]Queue[C, K]
	pqs    map[string]PQ[C, K]
}

// load returns the current snapshot (three map headers, by value), an empty
// one before the first Add*.
func (r *Registry[C, K]) load() bindings[C, K] {
	if b := r.snap.Load(); b != nil {
		return *b
	}
	return bindings[C, K]{}
}

// added returns a copy of m with name bound to v, panicking on a duplicate
// (two structures under one name is a driver bug, not a recoverable
// condition).
func added[V any](m map[string]V, class, name string, v V) map[string]V {
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("txnops: duplicate %s %q", class, name))
	}
	c := make(map[string]V, len(m)+1)
	maps.Copy(c, m)
	c[name] = v
	return c
}

// AddSet registers s under name, panicking on a duplicate.
func (r *Registry[C, K]) AddSet(name string, s Set[C, K]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.load()
	b.sets = added(b.sets, "set", name, s)
	r.snap.Store(&b)
}

// AddQueue registers q under name, panicking on a duplicate.
func (r *Registry[C, K]) AddQueue(name string, q Queue[C, K]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.load()
	b.queues = added(b.queues, "queue", name, q)
	r.snap.Store(&b)
}

// AddPQ registers p under name, panicking on a duplicate.
func (r *Registry[C, K]) AddPQ(name string, p PQ[C, K]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.load()
	b.pqs = added(b.pqs, "pq", name, p)
	r.snap.Store(&b)
}

// Set returns the set registered under name, or nil.
func (r *Registry[C, K]) Set(name string) Set[C, K] { return r.load().sets[name] }

// Queue returns the queue registered under name, or nil.
func (r *Registry[C, K]) Queue(name string) Queue[C, K] { return r.load().queues[name] }

// PQ returns the priority queue registered under name, or nil.
func (r *Registry[C, K]) PQ(name string) PQ[C, K] { return r.load().pqs[name] }

// SetNames returns the registered set names, sorted.
func (r *Registry[C, K]) SetNames() []string { return sortedKeys(r.load().sets) }

// QueueNames returns the registered queue names, sorted.
func (r *Registry[C, K]) QueueNames() []string { return sortedKeys(r.load().queues) }

// PQNames returns the registered priority-queue names, sorted.
func (r *Registry[C, K]) PQNames() []string { return sortedKeys(r.load().pqs) }

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
