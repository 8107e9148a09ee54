package semtx_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/semtx"
	"repro/internal/txn"
)

type rtTx = semtx.Tx[*txn.Ctx, int64]

const usedAfterReturn = "semtx: Tx used after its transaction returned"

// TestPoolTxUsedAfterRun: a Tx goes back to its manager's pool when Run
// returns, so one a body kept is the next transaction's. Every method
// refuses it.
func TestPoolTxUsedAfterRun(t *testing.T) {
	e := newEnv()
	var kept *rtTx
	e.run(t, func(tx *rtTx) error {
		kept = tx
		tx.Put("hot", 1)
		return nil
	})
	for name, use := range map[string]func(){
		"Get":     func() { kept.Get("hot", 1) },
		"Put":     func() { kept.Put("hot", 1) },
		"Delete":  func() { kept.Delete("hot", 1) },
		"Enqueue": func() { kept.Enqueue("ingress", 1) },
		"Dequeue": func() { kept.Dequeue("ingress") },
		"Push":    func() { kept.Push("sched", 1) },
		"PopMin":  func() { kept.PopMin("sched") },
		"Ops":     func() { kept.Ops() },
	} {
		func() {
			defer func() {
				if r := recover(); r != usedAfterReturn {
					t.Errorf("%s on a returned Tx: panic %v, want %q", name, r, usedAfterReturn)
				}
			}()
			use()
		}()
	}
}

// TestPoolTxDroppedOnForeignPanic: a panic that is not a *Violation passes
// through Run, and the Tx it unwound out of — in no known state — is never
// handed to another transaction. The manager goes on working.
func TestPoolTxDroppedOnForeignPanic(t *testing.T) {
	e := newEnv()
	var dropped *rtTx
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("panic %v, want the body's own", r)
			}
		}()
		e.sm.Run(func(tx *rtTx) error {
			dropped = tx
			tx.Put("hot", 9)
			tx.Enqueue("ingress", 9)
			panic("boom")
		})
	}()
	for i := 0; i < 8; i++ {
		e.run(t, func(tx *rtTx) error {
			if tx == dropped {
				t.Fatal("the Tx a foreign panic unwound out of was pooled")
			}
			if tx.Ops() != 0 || tx.Residue() != "" {
				t.Fatalf("Ops() = %d, residue %q", tx.Ops(), tx.Residue())
			}
			tx.Put("cold", int64(i))
			return nil
		})
	}
	if e.h.Contains(9) || e.q.Len() != 0 {
		t.Error("the panicking body published something")
	}
	if !e.s.Contains(7) {
		t.Error("a transaction after the panic did not commit")
	}
}

// TestPoolTxCarriesNothing: whatever way a transaction ended, the next one
// on the same Tx starts from nothing — no ops, items, buffered writes, flags
// or first-touch order — and the structures it holds bindings for but does
// not touch see no call.
func TestPoolTxCarriesNothing(t *testing.T) {
	e := newRecEnv()
	boom := errors.New("boom")
	var ended *rtTx // the Tx of the last transaction that touched everything
	everything := func(tx *rtTx) {
		ended = tx
		for _, s := range recSets {
			tx.Get(s, 1)
			tx.Put(s, 2)
			tx.Delete(s, 3)
		}
		tx.Enqueue("q", 4)
		tx.Dequeue("q")
		tx.Push("p", 5)
		tx.PopMin("p")
	}
	for _, tc := range []struct {
		name string
		end  func() error // runs one transaction touching everything, ending its own way
	}{
		{"error", func() error {
			_, err := e.sm.Run(func(tx *rtTx) error { everything(tx); return boom })
			if !errors.Is(err, boom) {
				return errors.New("the body's error did not come back")
			}
			return nil
		}},
		{"violation", func() error {
			e.q.Enqueue(1)
			_, err := e.sm.Run(func(tx *rtTx) error {
				everything(tx)
				tx.Dequeue("q")
				return nil
			})
			var v *semtx.Violation
			if !errors.As(err, &v) {
				return errors.New("no *Violation")
			}
			return nil
		}},
		{"semantic retry", func() error {
			attempt := 0
			_, err := e.sm.Run(func(tx *rtTx) error {
				if attempt++; attempt == 2 && (tx.Ops() != 0 || tx.Residue() != "") {
					t.Errorf("re-run body: Ops() = %d, residue %q", tx.Ops(), tx.Residue())
				}
				everything(tx)
				if attempt == 1 { // change key 1 of "a" behind the transaction's back
					e.tm.Atomic(func(c *txn.Ctx) {
						if !e.tm.Structures().Set("a").TxInsert(c, 1) {
							e.tm.Structures().Set("a").TxRemove(c, 1)
						}
					})
				}
				return nil
			})
			if attempt != 2 {
				return errors.New("no semantic retry happened")
			}
			return err
		}},
		{"200 keys", func() error {
			_, err := e.sm.Run(func(tx *rtTx) error {
				everything(tx)
				for k := int64(0); k < 200; k++ {
					tx.Put(recSets[k%3], 100+k)
					tx.Push("p", 100+k)
					tx.Enqueue("q", k)
				}
				return nil
			})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The pool may hand out a fresh Tx (under the race detector it
			// drops one Put in four on purpose): try until the Tx that
			// ended tc's way is the one the next transaction gets.
			for try := 0; try < 40; try++ {
				if err := tc.end(); err != nil {
					t.Fatal(err)
				}
				e.log.calls = e.log.calls[:0]
				recycled := false
				if _, err := e.sm.Run(func(tx *rtTx) error {
					recycled = tx == ended && tx.Bindings() == 5
					if tx.Ops() != 0 || tx.Residue() != "" {
						t.Fatalf("Ops() = %d, residue %q", tx.Ops(), tx.Residue())
					}
					tx.Get("b", 7)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				want := []call{{"", "atomic", 0}, {"b", "contains", 7}, {"", "atomic", 0}, {"b", "contains", 7}}
				if got := e.log.calls; !slices.Equal(got, want) {
					t.Fatalf("a one-Get transaction after %s made calls %v, want %v", tc.name, got, want)
				}
				if recycled {
					return
				}
			}
			t.Fatal("the pool never handed the same Tx to the next transaction")
		})
	}
}
