package txtest

import "testing"

func report(t *testing.T, name string, res Result) {
	t.Helper()
	for _, e := range res.Errors {
		t.Errorf("%s: harness error: %s", name, e)
	}
	for _, d := range res.Divergences {
		t.Errorf("%s: divergence: %s", name, d)
	}
	if res.CommittedTxns == 0 {
		t.Errorf("%s: no transactions committed", name)
	}
	t.Logf("%s: committed=%d user_aborts=%d sem_retries=%d",
		name, res.CommittedTxns, res.UserAborts, res.SemRetries)
}

func TestTwinReplayRuntime(t *testing.T) {
	txns := 4000
	if testing.Short() {
		txns = 800
	}
	report(t, "runtime", RunRuntime(Config{Threads: 4, Txns: txns, MaxOps: 8, Keys: 48, Seed: 1}))
}

// A second seed and a hotter key range, so the conflict paths (semantic
// retries, buffer serving, structural pops) all fire.
func TestTwinReplayRuntimeHot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	report(t, "runtime-hot", RunRuntime(Config{Threads: 6, Txns: 3000, MaxOps: 12, Keys: 8, Seed: 42}))
}

func TestTwinReplaySim(t *testing.T) {
	txns := 500
	if testing.Short() {
		txns = 100
	}
	report(t, "sim", RunSim(Config{Threads: 4, Txns: txns, MaxOps: 6, Keys: 32, Seed: 7}))
}

// TestTwinCatchesDivergence sanity-checks the oracle itself: a twin fed a
// deliberately wrong record must flag it.
func TestTwinCatchesDivergence(t *testing.T) {
	tw := NewTwin(Shape{Sets: 1})
	if d := tw.Step(OpSpec{Kind: OpPut, Struct: 0, Key: 5}, OpRec{Found: true}); d != "" {
		t.Fatalf("correct put flagged: %s", d)
	}
	if d := tw.Step(OpSpec{Kind: OpGet, Struct: 0, Key: 5}, OpRec{Found: false}); d == "" {
		t.Fatal("wrong get not flagged")
	}
}

func TestGenTxnDeterministic(t *testing.T) {
	cfg := Config{Txns: 10, MaxOps: 8, Keys: 16, Seed: 3}
	cfg.defaults()
	sh := Shape{Sets: 2, Queues: 2, PQs: 1}
	for i := 0; i < 10; i++ {
		a, b := GenTxn(cfg, sh, i), GenTxn(cfg, sh, i)
		if len(a.Ops) != len(b.Ops) || a.Abort != b.Abort {
			t.Fatalf("txn %d not deterministic", i)
		}
		for j := range a.Ops {
			if a.Ops[j] != b.Ops[j] {
				t.Fatalf("txn %d op %d not deterministic", i, j)
			}
		}
		deq := map[int]int{}
		pop := map[int]int{}
		for _, op := range a.Ops {
			if op.Kind == OpDeq {
				deq[op.Struct]++
			}
			if op.Kind == OpPop {
				pop[op.Struct]++
			}
		}
		for s, n := range deq {
			if n > 1 {
				t.Fatalf("txn %d: %d dequeues on queue %d", i, n, s)
			}
		}
		for s, n := range pop {
			if n > 1 {
				t.Fatalf("txn %d: %d pops on pq %d", i, n, s)
			}
		}
	}
}
