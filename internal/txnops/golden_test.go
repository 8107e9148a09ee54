package txnops_test

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bst"
	"repro/internal/hashtable"
	"repro/internal/sim"
	"repro/internal/simds"
	"repro/internal/simtxn"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// jsonKeys marshals v and returns its top-level JSON field names, sorted.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	m := map[string]json.RawMessage{}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestGoldenTelemetryNames pins the telemetry surface the composition layer
// exports on both substrates: the site-class names the managers register
// ("txn/atomic" on the runtime, "simtxn/atomic" on the modeled machine) and the JSON counter names of the per-site and
// composed snapshots. Dashboards key on these strings, so renames must be
// deliberate — update this golden alongside every consumer, not as a side
// effect.
func TestGoldenTelemetryNames(t *testing.T) {
	// Runtime substrate: one Move through a metrics-backed manager must
	// surface the "txn/atomic" speculation site and the "txn/atomic"
	// composed counter block.
	reg := telemetry.NewRegistry()
	m := txn.New(0).WithPolicy(speculate.Fixed(0).WithMetrics(reg))
	src := bst.NewPTOIn(m.Domain(), -1, -1)
	dst := hashtable.NewPTOTableIn(m.Domain(), 16, 0)
	m.Atomic(func(c *txn.Ctx) { src.TxInsert(c, 1) })
	if !txn.Move(m, src, dst, 1) {
		t.Fatal("runtime Move failed")
	}
	m.ReadOnly(func(c *txn.Ctx) { dst.TxContains(c, 1) })
	snap := reg.Snapshot()
	siteNames := map[string]bool{}
	for _, s := range snap.Sites {
		siteNames[s.Name] = true
	}
	if !siteNames["txn/atomic"] {
		t.Errorf("runtime site classes %v missing %q", keysOf(siteNames), "txn/atomic")
	}
	composedNames := map[string]bool{}
	for _, c := range snap.Composed {
		composedNames[c.Name] = true
	}
	if !composedNames["txn/atomic"] {
		t.Errorf("runtime composed classes %v missing %q", keysOf(composedNames), "txn/atomic")
	}

	// Modeled substrate: the same traffic must surface the site class
	// "simtxn/atomic" (a single-level site takes the bare name, as on the
	// runtime).
	sreg := telemetry.NewRegistry()
	machine := sim.New(sim.DefaultConfig(1))
	setup := machine.Thread(0)
	mgr := simtxn.New(0).WithPolicy(speculate.Fixed(0).WithMetrics(sreg))
	sa := simds.NewSimBST(setup, simds.BSTPTO12, false, 1)
	sb := simds.NewSimHash(setup, simds.HashPTO, 16, 1)
	sb.Stabilize(setup)
	sa.Insert(setup, 1)
	moved := false
	machine.Run(func(th *sim.Thread) { moved = simtxn.Move(mgr, th, sa, sb, 1) })
	if !moved {
		t.Fatal("modeled Move failed")
	}
	ssnap := sreg.Snapshot()
	simNames := map[string]bool{}
	for _, s := range ssnap.Sites {
		simNames[s.Name] = true
	}
	if !simNames["simtxn/atomic"] {
		t.Errorf("modeled site classes %v missing %q", keysOf(simNames), "simtxn/atomic")
	}

	// Three-path managers (WithMiddle) register one site class per level on
	// both substrates — the fast tier moves from the bare site name to
	// name/fast, and the helping tier appears as name/middle. The A10
	// harness (internal/bench/threepath.go) reads its helped count there.
	treg := telemetry.NewRegistry()
	txn.New(0).WithPolicy(speculate.Fixed(0).WithMetrics(treg)).WithMiddle(0, 0)
	threeNames := map[string]bool{}
	for _, s := range treg.Snapshot().Sites {
		threeNames[s.Name] = true
	}
	for _, want := range []string{"txn/atomic/fast", "txn/atomic/middle"} {
		if !threeNames[want] {
			t.Errorf("three-path runtime site classes %v missing %q", keysOf(threeNames), want)
		}
	}
	streg := telemetry.NewRegistry()
	simtxn.New(0).WithPolicy(speculate.Fixed(0).WithMetrics(streg)).WithMiddle(0, 0)
	sthreeNames := map[string]bool{}
	for _, s := range streg.Snapshot().Sites {
		sthreeNames[s.Name] = true
	}
	for _, want := range []string{"simtxn/atomic/fast", "simtxn/atomic/middle"} {
		if !sthreeNames[want] {
			t.Errorf("three-path modeled site classes %v missing %q", keysOf(sthreeNames), want)
		}
	}

	// Counter names, shared by both substrates: the per-site attempt
	// partition and the composed-path counter block.
	wantSite := []string{
		"adaptive_disables", "attempts", "capacity", "commits", "conflicts",
		"explicit", "fallbacks", "helped_descs", "site",
		"skipped_ops", "spec_latency",
	}
	if got := jsonKeys(t, telemetry.SiteSnapshot{}); !reflect.DeepEqual(got, wantSite) {
		t.Errorf("site counter names drifted:\n got %v\nwant %v", got, wantSite)
	}
	wantComposed := []string{
		"fallback_commits", "fast_commits", "mcas_attempts", "mcas_failures",
		"mcas_width", "ops", "readonly_commits", "restarts", "site",
	}
	if got := jsonKeys(t, telemetry.ComposedSnapshot{}); !reflect.DeepEqual(got, wantComposed) {
		t.Errorf("composed counter names drifted:\n got %v\nwant %v", got, wantComposed)
	}
	wantOpen := []string{"ops_per_txn", "sem_retries", "site", "txns", "user_aborts"}
	if got := jsonKeys(t, telemetry.OpenSnapshot{}); !reflect.DeepEqual(got, wantOpen) {
		t.Errorf("open counter names drifted:\n got %v\nwant %v", got, wantOpen)
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
