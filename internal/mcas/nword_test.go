package mcas

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// --- black-box semantics -------------------------------------------------

func TestMCASEmptySucceeds(t *testing.T) {
	if !mcas() {
		t.Fatal("empty MCAS must trivially succeed")
	}
}

func TestMCASBasicNWord(t *testing.T) {
	const n = 7
	words := make([]*Word, n)
	ops := make([]entry, n)
	for i := range words {
		words[i] = NewWord(uint64(i))
		ops[i] = entry{words[i], uint64(i), uint64(i + 100)}
	}
	if !mcas(ops...) {
		t.Fatal("MCAS with all-matching olds failed")
	}
	for i, w := range words {
		if got := w.Load(); got != uint64(i+100) {
			t.Fatalf("word %d = %d, want %d", i, got, i+100)
		}
	}
}

func TestMCASFailsAtomically(t *testing.T) {
	a, b, c := NewWord(1), NewWord(2), NewWord(3)
	// Middle leg's old value is wrong: nothing may change.
	if mcas(entry{a, 1, 10}, entry{b, 99, 20}, entry{c, 3, 30}) {
		t.Fatal("MCAS with a mismatched leg succeeded")
	}
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatalf("failed MCAS mutated words: %d %d %d", a.Load(), b.Load(), c.Load())
	}
}

func TestMCASReadGuardLegs(t *testing.T) {
	guard, w := NewWord(5), NewWord(1)
	// Old == New on the guard leg: pure comparison, no write.
	if !mcas(entry{guard, 5, 5}, entry{w, 1, 2}) {
		t.Fatal("guarded MCAS failed with matching guard")
	}
	if guard.Load() != 5 || w.Load() != 2 {
		t.Fatalf("guard=%d w=%d", guard.Load(), w.Load())
	}
	if mcas(entry{guard, 4, 4}, entry{w, 2, 3}) {
		t.Fatal("guarded MCAS succeeded with stale guard")
	}
	if w.Load() != 2 {
		t.Fatalf("w mutated by failed guarded MCAS: %d", w.Load())
	}
}

func TestMCASDuplicateWordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate word did not panic")
		}
	}()
	w := NewWord(0)
	mcas(entry{w, 0, 1}, entry{w, 0, 2})
}

// --- quick-check style interleavings ------------------------------------

// TestMCASQuickCheck runs randomized batches of overlapping MCAS operations
// on a small word set from several goroutines and verifies after each round
// that the word values correspond to a serialization of the successful
// operations: every word's final value must be reachable by applying the
// reported-successful ops in some order (we check the weaker but telling
// invariant that each word's value is one this word was ever assigned, and
// that per-round success counts match value transitions on a designated
// counter word that every op bumps by a distinct amount).
func TestMCASQuickCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rounds = 200
	for round := 0; round < rounds; round++ {
		nWords := 2 + rng.Intn(5)
		words := make([]*Word, nWords)
		for i := range words {
			words[i] = NewWord(0)
		}
		nOps := 2 + rng.Intn(4)
		// Each op CASes a random subset from the current shared value v to
		// v+1 on every chosen word. Since all words start at 0 and every op
		// targets old==k for one k, success means all its words were at k.
		var wg sync.WaitGroup
		succ := make([]atomic.Uint64, nWords)
		for o := 0; o < nOps; o++ {
			// Pick a subset (at least one word) and an expected generation.
			mask := 1 + rng.Intn(1<<nWords-1)
			gen := uint64(rng.Intn(2))
			wg.Add(1)
			go func(mask int, gen uint64) {
				defer wg.Done()
				var ops []entry
				for i := 0; i < nWords; i++ {
					if mask&(1<<i) != 0 {
						ops = append(ops, entry{words[i], gen, gen + 1})
					}
				}
				if mcas(ops...) {
					for i := 0; i < nWords; i++ {
						if mask&(1<<i) != 0 {
							succ[i].Add(1)
						}
					}
				}
			}(mask, gen)
		}
		wg.Wait()
		// Each word's final value equals the number of successful increments
		// applied to it: ops are +1 CASes, so value == success count.
		for i, w := range words {
			if got, want := w.Load(), succ[i].Load(); got != want {
				t.Fatalf("round %d word %d: value %d, want %d successful increments",
					round, i, got, want)
			}
		}
	}
}

// --- helping under contention -------------------------------------------

// TestMCASHelpingUnderContention hammers a shared word set with wide
// overlapping MCASes plus plain CAS/Load traffic. All operations are
// increments guarded on the current value, so the final state must equal the
// total number of successful increments; helping is exercised because every
// operation's word set overlaps every other's on word 0.
func TestMCASHelpingUnderContention(t *testing.T) {
	nThreads := runtime.GOMAXPROCS(0)
	if nThreads < 4 {
		nThreads = 4
	}
	const perThread = 2000
	const nWords = 8
	words := make([]*Word, nWords)
	for i := range words {
		words[i] = NewWord(0)
	}
	var committed [nWords]atomic.Uint64
	var wg sync.WaitGroup
	for th := 0; th < nThreads; th++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perThread; i++ {
				// Always include word 0 to force overlap.
				mask := 1 | rng.Intn(1<<nWords)
				var ops []entry
				for j := 0; j < nWords; j++ {
					if mask&(1<<j) != 0 {
						cur := words[j].Load()
						ops = append(ops, entry{words[j], cur, cur + 1})
					}
				}
				if mcas(ops...) {
					for j := 0; j < nWords; j++ {
						if mask&(1<<j) != 0 {
							committed[j].Add(1)
						}
					}
				}
			}
		}(int64(th) * 977)
	}
	wg.Wait()
	for j, w := range words {
		if got, want := w.Load(), committed[j].Load(); got != want {
			t.Fatalf("word %d = %d, want %d (successful increments)", j, got, want)
		}
	}
}

// --- whitebox: N-word descriptor staging and reclamation -----------------

// stageNDescriptor installs an undecided N-word descriptor claiming all
// words, as a stalled peer would leave it.
func stageNDescriptor(t *testing.T, words []*Word, olds, news []uint64) *descriptor {
	t.Helper()
	d := &descriptor{entries: make([]entry, len(words))}
	for i := range words {
		d.entries[i] = entry{w: words[i], old: olds[i], new: news[i]}
	}
	for i := range d.entries {
		e := &d.entries[i]
		b := e.w.p.Load()
		if b.val != e.old || b.desc != nil {
			t.Fatal("staging claim failed")
		}
		if !e.w.p.CompareAndSwap(b, &box{val: e.old, desc: d}) {
			t.Fatal("staging CAS failed")
		}
	}
	return d
}

func TestLoadHelpsStalledNWordDescriptor(t *testing.T) {
	words := []*Word{NewWord(1), NewWord(2), NewWord(3), NewWord(4)}
	stageNDescriptor(t, words, []uint64{1, 2, 3, 4}, []uint64{10, 20, 30, 40})
	// A single Load on any leg must complete the whole operation.
	if got := words[2].Load(); got != 30 {
		t.Fatalf("helped leg = %d, want 30", got)
	}
	for i, want := range []uint64{10, 20, 30, 40} {
		if got := words[i].Load(); got != want {
			t.Fatalf("word %d = %d, want %d", i, got, want)
		}
	}
}

// TestMCASDescriptorReclamation verifies no word retains a pointer to the
// descriptor after the operation completes (successfully or not), so the
// descriptor is garbage once the last helper drops its reference — the
// boxed-cell discipline that stands in for epoch reclamation here.
func TestMCASDescriptorReclamation(t *testing.T) {
	words := []*Word{NewWord(1), NewWord(2), NewWord(3)}
	d := stageNDescriptor(t, words, []uint64{1, 2, 3}, []uint64{10, 20, 30})
	d.help()
	if d.status.Load() != succeeded {
		t.Fatal("staged descriptor did not commit")
	}
	for i, w := range words {
		if b := w.p.Load(); b.desc != nil {
			t.Fatalf("word %d still references a descriptor after completion", i)
		}
	}
	// Failed path: stage against stale olds via a competing update.
	a, b := NewWord(1), NewWord(2)
	a.Store(9) // invalidates the op below
	if mcas(entry{a, 1, 10}, entry{b, 2, 20}) {
		t.Fatal("stale MCAS succeeded")
	}
	if ab := a.p.Load(); ab.desc != nil {
		t.Fatal("failed MCAS left a descriptor on word a")
	}
	if bb := b.p.Load(); bb.desc != nil {
		t.Fatal("failed MCAS left a descriptor on word b")
	}
}
