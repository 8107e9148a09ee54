package hashtable

import (
	"runtime"
	"testing"

	"repro/internal/israce"
	"repro/internal/txn"
)

// composedTable runs each operation as one composed transaction through the
// Tx adapters: Insert and Remove as txn.Atomic, Contains as txn.ReadOnly.
type composedTable struct {
	m *txn.Manager
	t *PTOTable
}

func newComposed() composedTable {
	m := txn.New(0)
	return composedTable{m, NewPTOTableIn(m.Domain(), 0, 0)}
}

func (c composedTable) Insert(k int64) (ok bool) {
	c.m.Atomic(func(x *txn.Ctx) { ok = c.t.TxInsert(x, k) })
	return ok
}

func (c composedTable) Remove(k int64) (ok bool) {
	c.m.Atomic(func(x *txn.Ctx) { ok = c.t.TxRemove(x, k) })
	return ok
}

func (c composedTable) Contains(k int64) (ok bool) {
	c.m.ReadOnly(func(x *txn.Ctx) { ok = c.t.TxContains(x, k) })
	return ok
}

type hashSet interface {
	Insert(int64) bool
	Remove(int64) bool
	Contains(int64) bool
}

// layerTables returns the three paths, each holding the 4 096 even keys of
// [0, 8192): from the default 16 buckets the inserts grow the table nine
// times, and 2^14 remove/insert pairs then churn it.
func layerTables() []struct {
	name string
	s    hashSet
} {
	out := []struct {
		name string
		s    hashSet
	}{{"lockfree", NewTable(0)}, {"pto", NewPTOTable(0, 0)}, {"composed", newComposed()}}
	for _, c := range out {
		for k := int64(0); k < 8192; k += 2 {
			c.s.Insert(k)
		}
		for i := int64(0); i < 1<<14; i++ {
			k := i * 74 % 8192
			c.s.Remove(k)
			c.s.Insert(k)
		}
	}
	return out
}

// TestAllocsHashtable pins what one Insert+Remove pair of an absent key and
// one Contains allocate on each path. A PTO update allocates the bucket's
// new array and its node, and so does a composed one: its OnCommit count
// hooks are made once per table, in NewPTOTableIn. The lock-free table
// takes its arrays from the pool of retired ones, and pays instead for the
// node, the retirement's callback and the array's return to the pool.
// Lookups allocate nothing.
func TestAllocsHashtable(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	want := map[string][2]float64{
		"lockfree": {6, 0},
		"pto":      {4, 0},
		"composed": {4, 0},
	}
	for _, c := range layerTables() {
		s := c.s
		pair := testing.AllocsPerRun(200, func() { s.Insert(1); s.Remove(1) })
		look := testing.AllocsPerRun(200, func() { s.Contains(2) })
		if w := want[c.name]; pair != w[0] || look != w[1] {
			t.Errorf("%s: Insert+Remove %v allocs, Contains %v; want %v, %v", c.name, pair, look, w[0], w[1])
		}
	}
}

// BenchmarkHashtable runs a third each of inserts, removes and lookups of
// keys of [0, 8192) on the churned tables of layerTables: the cost of one
// operation of the baseline, of the PTO table's common path, and of its
// composed adapters.
func BenchmarkHashtable(b *testing.B) {
	for _, c := range layerTables() {
		s := c.s
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			runtime.GC() // start from this sub-benchmark's own heap
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i * 37 % 8192)
				switch i % 3 {
				case 0:
					s.Insert(k)
				case 1:
					s.Remove(k)
				default:
					s.Contains(k)
				}
			}
		})
	}
}
