package simds

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/speculate"
)

func bstKinds() map[string]BSTKind {
	return map[string]BSTKind{
		"lockfree":  BSTLockfree,
		"pto1":      BSTPTO1,
		"pto2":      BSTPTO2,
		"pto1+pto2": BSTPTO12,
	}
}

func TestSimBSTSingleThread(t *testing.T) {
	for name, kind := range bstKinds() {
		m := sim.New(sim.DefaultConfig(1))
		b := NewSimBST(m.Thread(0), kind, false, 1)
		m.Run(func(t *sim.Thread) {
			for _, k := range []uint64{10, 5, 20, 15} {
				if !b.Insert(t, k) {
					panic("fresh insert failed")
				}
			}
			if b.Insert(t, 10) {
				panic("duplicate insert succeeded")
			}
			if !b.Contains(t, 15) || b.Contains(t, 7) {
				panic("contains wrong")
			}
			if !b.Remove(t, 10) || b.Remove(t, 10) {
				panic("remove semantics wrong")
			}
		})
		keys := b.Keys(m.Thread(0))
		want := []uint64{5, 15, 20}
		if len(keys) != len(want) {
			t.Fatalf("%s: keys = %v, want %v", name, keys, want)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("%s: keys = %v, want %v", name, keys, want)
			}
		}
	}
}

func TestSimBSTConcurrentBalance(t *testing.T) {
	forPolicies(t, func(t *testing.T, pol speculate.Policy) {
		for name, kind := range bstKinds() {
			m := sim.New(sim.DefaultConfig(8))
			b := NewSimBST(m.Thread(0), kind, false, 8).WithPolicy(pol)
			const keys = 64
			var ins, rem [8][keys]int
			m.Run(func(t *sim.Thread) {
				for i := 0; i < 150; i++ {
					k := t.Rand() % keys
					switch t.Rand() % 3 {
					case 0:
						if b.Insert(t, k+1) {
							ins[t.ID()][k]++
						}
					case 1:
						if b.Remove(t, k+1) {
							rem[t.ID()][k]++
						}
					default:
						b.Contains(t, k+1)
					}
				}
			})
			setup := m.Thread(0)
			for k := 0; k < keys; k++ {
				bal := 0
				for tid := 0; tid < 8; tid++ {
					bal += ins[tid][k] - rem[tid][k]
				}
				if bal != 0 && bal != 1 {
					t.Fatalf("%s: key %d balance %d", name, k, bal)
				}
				if (bal == 1) != setupContains(setup, b, uint64(k+1)) {
					t.Fatalf("%s: key %d presence disagrees with balance %d", name, k, bal)
				}
			}
			if kind != BSTLockfree && m.Stats().TxCommits == 0 {
				t.Errorf("%s: no transaction ever committed", name)
			}
		}
	})
}

// setupContains checks membership via the quiescent traversal (the Contains
// method would attempt a transaction, which is fine, but the traversal is
// independent of the protocol under test).
func setupContains(t *sim.Thread, b *SimBST, key uint64) bool {
	for _, k := range b.Keys(t) {
		if k == key {
			return true
		}
	}
	return false
}

func TestSimBSTShapeInvariant(t *testing.T) {
	m := sim.New(sim.DefaultConfig(8))
	b := NewSimBST(m.Thread(0), BSTPTO12, false, 8)
	m.Run(func(t *sim.Thread) {
		for i := 0; i < 200; i++ {
			k := t.Rand()%128 + 1
			if t.Rand()%2 == 0 {
				b.Insert(t, k)
			} else {
				b.Remove(t, k)
			}
		}
	})
	setup := m.Thread(0)
	keys := b.Keys(setup)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("in-order traversal not sorted: %v", keys)
		}
	}
}

func TestSimBSTFenceVariantCostsMore(t *testing.T) {
	run := func(keepFences bool) (uint64, uint64) {
		m := sim.New(sim.DefaultConfig(4))
		b := NewSimBST(m.Thread(0), BSTPTO1, keepFences, 4)
		setup := m.Thread(0)
		for i := uint64(0); i < 128; i++ {
			b.Insert(setup, ((i*0x9E3779B1+7)&127)*2+1) // shuffled: balanced tree
		}
		var clocks [4]uint64
		m.Run(func(t *sim.Thread) {
			for i := 0; i < 150; i++ {
				k := t.Rand()%256 + 1
				if t.Rand()%2 == 0 {
					b.Insert(t, k)
				} else {
					b.Remove(t, k)
				}
			}
			clocks[t.ID()] = t.Now()
		})
		var total uint64
		for _, c := range clocks {
			total += c
		}
		return total, m.Stats().Fences
	}
	withF, fencesWith := run(true)
	withoutF, fencesWithout := run(false)
	if fencesWithout >= fencesWith {
		t.Fatalf("fence elision executed no fewer fences: %d vs %d", fencesWithout, fencesWith)
	}
	if withoutF >= withF {
		t.Fatalf("fence elision did not reduce cycles: %d vs %d", withoutF, withF)
	}
}

func TestSimBSTDeterministic(t *testing.T) {
	run := func() sim.Stats {
		m := sim.New(sim.DefaultConfig(8))
		b := NewSimBST(m.Thread(0), BSTPTO12, false, 8)
		m.Run(func(t *sim.Thread) {
			for i := 0; i < 100; i++ {
				k := t.Rand()%128 + 1
				switch t.Rand() % 3 {
				case 0:
					b.Insert(t, k)
				case 1:
					b.Remove(t, k)
				default:
					b.Contains(t, k)
				}
			}
		})
		return m.Stats()
	}
	if run() != run() {
		t.Fatal("nondeterministic BST run")
	}
}
