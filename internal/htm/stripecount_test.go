package htm

import (
	"runtime"
	"sync"
	"testing"
)

// TestStripeCountOption pins the per-domain stripe count API: configured
// counts are honored, zero selects the default, non-powers-of-two panic, and
// the default table reproduces the historical fixed hash (shift 56) so
// existing domains' stripe assignments are unchanged.
func TestStripeCountOption(t *testing.T) {
	if n := NewDomain(0, 0).Stripes(); n != DefaultStripes {
		t.Fatalf("default stripes = %d, want %d", n, DefaultStripes)
	}
	if n := NewDomainStripes(0, 0, 0).Stripes(); n != DefaultStripes {
		t.Fatalf("stripes(0) = %d, want default %d", n, DefaultStripes)
	}
	for _, n := range []int{1, 4, 64, 1024} {
		d := NewDomainStripes(0, 0, n)
		if got := d.Stripes(); got != n {
			t.Fatalf("stripes(%d) = %d", n, got)
		}
		v := NewVar(d, 0)
		if int(sidxOf(d, v)) >= n {
			t.Fatalf("stripe index %d out of range for %d stripes", sidxOf(d, v), n)
		}
	}
	for _, n := range []int{-1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDomainStripes(%d) did not panic", n)
				}
			}()
			NewDomainStripes(0, 0, n)
		}()
	}
	// Default-table hash equals the historical fixed 256-stripe hash.
	d := NewDomain(0, 0)
	tb := d.table()
	for id := uint64(1); id < 2048; id++ {
		want := uint32((id*0x9E3779B97F4A7C15)>>56) % 256
		if got := tb.indexOf(id); got != want {
			t.Fatalf("indexOf(%d) = %d, want historical %d", id, got, want)
		}
	}
}

// TestFourStripeAliasingStress is the aliasing stress fixture: a 4-stripe
// domain with many single-writer Vars, so nearly every conflict between the
// workers is a stripe alias. Correctness must survive the heavy aliasing
// (no lost updates), MultiCAS included, and the classifier must attribute
// aliased aborts as false conflicts.
func TestFourStripeAliasingStress(t *testing.T) {
	d := NewDomainStripes(0, 0, 4)
	const workers = 8
	const opsPer = 3000
	vars := make([]*Var[int], workers)
	for i := range vars {
		vars[i] = NewVar(d, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(v *Var[int], w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				switch {
				case i%5 == 4:
					// Direct CAS retry loop through the same 4 stripes.
					for {
						x := Load(nil, v)
						if CAS(nil, v, x, x+1) {
							break
						}
					}
				case i%7 == 6:
					// Single-leg MultiCAS: descriptor traffic on a hot stripe.
					for {
						x := Load(nil, v)
						if MultiCAS(NewUpdate(v, x, x+1)) {
							break
						}
					}
				default:
					for {
						if d.Atomically(func(tx *Tx) {
							Store(tx, v, Load(tx, v)+1)
						}) == Committed {
							break
						}
					}
				}
			}
		}(vars[w], w)
	}
	wg.Wait()
	for i, v := range vars {
		if got := Load(nil, v); got != opsPer {
			t.Fatalf("var %d = %d, want %d: updates lost under 4-stripe aliasing", i, got, opsPer)
		}
	}
	s := d.Stats()
	if s.FalseConflicts > s.Conflicts {
		t.Fatalf("stats = %+v: false conflicts exceed conflicts", s)
	}
	// Every Var has a single writer, so any conflict between workers is an
	// alias; with 8 writers on 4 stripes the classifier must see some.
	if s.Conflicts > 0 && s.FalseConflicts == 0 {
		t.Fatalf("stats = %+v: aliased aborts never classified false", s)
	}
}

// TestWideMultiCASOnFourStripes races 8-leg MultiCAS publications, each
// parked between claim and decision, on a 4-stripe table: every decision
// merges aliased legs onto shared stripes and spins behind the other's, and
// helpers decide descriptors they did not create. Each success adds exactly
// 1 to every leg.
func TestWideMultiCASOnFourStripes(t *testing.T) {
	d := NewDomainStripes(0, 0, 4)
	const legs = 8
	const rounds = 1500
	vars := make([]*Var[int], legs)
	for i := range vars {
		vars[i] = NewVar(d, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for {
					ents := make([]Entry, legs)
					for i, v := range vars {
						x := Load(nil, v)
						ents[i] = NewUpdate(v, x, x+1)
					}
					if MultiCASParked(runtime.Gosched, ents...) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, v := range vars {
		if got := Load(nil, v); got != 2*rounds {
			t.Fatalf("leg %d = %d, want %d", i, got, 2*rounds)
		}
	}
}
