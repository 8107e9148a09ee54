package skiplist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/txn"
)

// TestConcurrentLowering races the height's two movers. Removers empty the
// top levels, each physical unlink lowering the height, while inserters
// link towers of MaxLevel-1 whose raise a lower can undo before the tower
// is linked, and a reader looks up keys that never change. Whatever the
// height reads, a search that links or unlinks starts at its own tower's
// top: a search that started at the height would find no predecessor above
// it. At quiescence every live key is found by Contains, by TxContains and
// in Keys, and Len is the prefill plus the inserts less the removes.
func TestConcurrentLowering(t *testing.T) {
	const prefill, span, rounds = 64, 16, 1500
	for _, c := range []struct {
		name     string
		fallback bool // crushed capacity: every prefix transaction falls back
		composed bool // tall inserts and removes through the Tx adapters
		lockfree bool
	}{{name: "lockfree", lockfree: true}, {name: "pto"}, {name: "pto-fallback", fallback: true}, {name: "composed", composed: true}} {
		t.Run(c.name, func(t *testing.T) {
			m := txn.New(0)
			pto := NewPTOSetIn(m.Domain(), 0)
			lf := NewSet()
			var s setIface = pto
			insertTall := func(k int64) bool { return pto.insert(k, MaxLevel-1) }
			switch {
			case c.lockfree:
				s = lf
				insertTall = func(k int64) bool { return lf.insert(k, MaxLevel-1) }
			case c.composed:
				s = composedSet{m, pto}
				insertTall = func(k int64) (ok bool) {
					m.Atomic(func(x *txn.Ctx) { ok = pto.txInsert(x, k, MaxLevel-1) })
					return ok
				}
			}
			contains := []func(int64) bool{lf.Contains}
			if !c.lockfree {
				contains = []func(int64) bool{pto.Contains, composedSet{m, pto}.Contains}
			}
			for k := int64(0); k < prefill; k++ {
				s.Insert(k)
			}
			if c.fallback {
				m.Domain().SetCapacity(1, 1)
			}
			var ins, rem [span]atomic.Int64
			var stop atomic.Bool
			var wg, readers sync.WaitGroup
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := 0; !stop.Load(); i++ {
					k := int64(i % prefill)
					for _, has := range contains {
						if !has(k) {
							t.Errorf("key %d of the prefill not found during the churn", k)
							return
						}
					}
				}
			}()
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < rounds; i++ {
						k := rnd.Intn(span)
						key := int64(1000 + k)
						if g%2 == 0 {
							if insertTall(key) {
								ins[k].Add(1)
							}
						} else if s.Remove(key) {
							rem[k].Add(1)
						}
					}
				}(g)
			}
			wg.Wait()
			stop.Store(true)
			readers.Wait()
			want := prefill
			keys := make(map[int64]bool)
			for _, k := range s.Keys() {
				keys[k] = true
			}
			for k := int64(0); k < prefill+span; k++ {
				key, live := k, true
				if k >= prefill {
					key = 1000 + k - prefill
					diff := ins[k-prefill].Load() - rem[k-prefill].Load()
					if diff != 0 && diff != 1 {
						t.Fatalf("key %d: inserts-removes = %d, want 0 or 1", key, diff)
					}
					live = diff == 1
					want += int(diff)
				}
				for i, has := range contains {
					if has(key) != live {
						t.Errorf("lookup %d of key %d = %v, want %v", i, key, has(key), live)
					}
				}
				if keys[key] != live {
					t.Errorf("Keys has %d: %v, want %v", key, keys[key], live)
				}
			}
			if got := s.Len(); got != want || len(keys) != want {
				t.Errorf("Len = %d, %d keys, want %d", got, len(keys), want)
			}
		})
	}
}
