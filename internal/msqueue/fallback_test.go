package msqueue

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Crushing the transactional read capacity forces the PTO queue onto the
// original Michael–Scott protocol: double-checked snapshots and lagging-tail
// helping (algo.go's Enqueue and Dequeue).

func TestFallbackFIFOForced(t *testing.T) {
	q, reg := metered()
	q.Domain().SetCapacity(1, 1)
	for i := int64(0); i < 200; i++ {
		q.Enqueue(i)
	}
	for i := int64(0); i < 200; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d = %d,%v", i, v, ok)
		}
	}
	ef := reg.Site("msqueue/enqueue").Snapshot().Fallbacks
	df := reg.Site("msqueue/dequeue").Snapshot().Fallbacks
	if ef == 0 || df == 0 {
		t.Fatalf("capacity crush did not force fallbacks: enq=%d deq=%d", ef, df)
	}
}

func TestFallbackConcurrentConservation(t *testing.T) {
	q := NewPTO(0)
	q.Domain().SetCapacity(1, 1)
	const producers, per = 4, 800
	seen := make([]atomic.Int32, producers*per)
	var count atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(int64(p*per + i))
				if i%2 == 1 {
					if v, ok := q.Dequeue(); ok {
						seen[v].Add(1)
						count.Add(1)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		seen[v].Add(1)
		count.Add(1)
	}
	if count.Load() != producers*per {
		t.Fatalf("dequeued %d, want %d", count.Load(), producers*per)
	}
	for v := range seen {
		if c := seen[v].Load(); c != 1 {
			t.Fatalf("value %d seen %d times", v, c)
		}
	}
}
