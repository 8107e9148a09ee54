package main

import (
	"encoding/json"
	"fmt"
)

// The workloads, in their default order.
var workloads = []workloadSpec{
	{"serve-point", "single-key /v1/op over loopback HTTP: one publication per request, so net/http, JSON and routing dominate and a commit-path change must show nothing"},
	{"serve-envelope", "32-key envelopes and six-op /v1/txn bodies over the same transport: HTTP cost is amortized, so semtx, txn, htm and structure walks do most of the work"},
	{"lib-compose", "direct library calls on one htm domain, fast path then forced MultiCAS fallback: htm, speculate, txn, semtx and the structures are all of the time, HTTP none"},
	{"sim-figures", "paper figures 2a, 2b, 3b, 4b and ablation A8 on the modeled machine: the only workload on the simulated clock, deterministic, and the simulator's own speed"},
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// e2eSpec is one end-to-end metric: what a user of the workload's surface
// sees. Bound is the share of the parent's median by which it may worsen.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Means  string  `json:"means"` // what it is on each workload
}

var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", 0.25,
		"median time to build the system under test and bring it to its starting state (construct, connect, learn routing, prefill); sim-figures: one modeled machine built and a 64K-range hash table prefilled to half"},
	{"ops_per_s", "1/s", "higher", 0.25,
		"units of work per reference second, median over 100 ms windows: verified requests (serve), library calls of the fast-path phase (lib-compose), figure points generated (sim-figures)"},
	{"p50_ms", "ms", "lower", 0.25,
		"median latency of one unit of work as its caller sees it: request (serve), sampled library call (lib-compose), figure (sim-figures)"},
	{"p99_ms", "ms", "lower", 0.25,
		"99th percentile of the same latency; sim-figures has five figures, so it is the slowest one"},
	{"pto_speedup", "x", "higher", 0.15,
		"throughput with the prefix-transaction fast path ÷ throughput of the same stream with it unavailable (capacity -1: every composed op takes the MultiCAS fallback); sim-figures: modeled geomean of PTO ÷ Lockfree over six series pairs × 8 thread counts (exact)"},
	{"rss_peak_mb", "MB", "lower", 0.15,
		"peak resident set of the run's process (VmHWM), both of a runtime workload's systems alive; sim-figures: of a process that generates the figure set once, the smallest of the run's rounds"},
}

// layerSpec is one per-layer metric with the prediction that makes it
// useful: which end-to-end number it should move, and where it must not.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Layer  string `json:"layer"`
	Moves  string `json:"should_move"`
	Calm   string `json:"no_change_expected_on,omitempty"`
}

// Probe metrics (unit ns, allocs, exact modeled counts) come from
// single-goroutine microbenchmarks and are the same whatever the workload;
// window metrics (counts, shares) are deltas over the traced run's measured
// window of its own workload and read 0 where that workload has no such
// layer.
var perLayer = func() []layerSpec {
	var out []layerSpec
	add := func(layer, moves, calm string, rows ...[3]string) {
		for _, r := range rows {
			out = append(out, layerSpec{Name: r[0], Unit: r[1], Better: r[2], Layer: layer, Moves: moves, Calm: calm})
		}
	}
	lo, hi := "lower", "higher"
	add("net/http", "p50_ms, ops_per_s @ serve-point", "lib-compose, sim-figures",
		[3]string{"http.healthz_roundtrip_ns", "ns", lo},
		[3]string{"http.op_roundtrip_ns", "ns", lo},
		[3]string{"client.encode_ns", "ns", lo},
		[3]string{"client.decode_ns", "ns", lo},
		[3]string{"trace.net_self_share", "ratio", lo})
	add("server", "ops_per_s, p50_ms @ serve-point (get/put, codec); ops_per_s @ serve-envelope (put32/moveall32/txn6)", "lib-compose, sim-figures",
		[3]string{"server.handler_get_ns", "ns", lo},
		[3]string{"server.handler_put_ns", "ns", lo},
		[3]string{"server.handler_put32_ns", "ns", lo},
		[3]string{"server.handler_moveall32_ns", "ns", lo},
		[3]string{"server.handler_txn6_ns", "ns", lo},
		[3]string{"server.handler_batched_put_ns", "ns", lo},
		[3]string{"server.handler_get_allocs", "count", lo},
		[3]string{"server.handler_put_allocs", "count", lo},
		[3]string{"server.codec_self_ns", "ns", lo},
		[3]string{"server.publications", "count", lo},
		[3]string{"server.keys_per_publication", "count", hi},
		[3]string{"server.fast_commit_share", "ratio", hi},
		[3]string{"server.sheds", "count", lo},
		[3]string{"server.batches", "count", hi},
		[3]string{"server.batch_mean_size", "count", hi},
		[3]string{"server.keys_per_s", "1/s", hi})
	add("semtx", "ops_per_s @ serve-envelope, lib-compose", "serve-point",
		[3]string{"semtx.run_1op_ns", "ns", lo},
		[3]string{"semtx.run_4op_ns", "ns", lo},
		[3]string{"semtx.run_4op_allocs", "count", lo},
		[3]string{"semtx.txns", "count", hi},
		[3]string{"semtx.sem_retries_per_ktxn", "count", lo},
		[3]string{"semtx.user_aborts", "count", lo})
	add("txn/txnops", "ops_per_s @ lib-compose (fast-path rows); pto_speedup @ lib-compose (*_fallback_*, mcas_*); ops_per_s @ serve-envelope", "serve-point (a few %)",
		[3]string{"txn.empty_atomic_ns", "ns", lo},
		[3]string{"txn.atomic_1op_ns", "ns", lo},
		[3]string{"txn.readonly_1op_ns", "ns", lo},
		[3]string{"txn.move_ns", "ns", lo},
		[3]string{"txn.moveall16_ns", "ns", lo},
		[3]string{"txn.moveall32_ns", "ns", lo},
		[3]string{"txn.atomic_1op_fallback_ns", "ns", lo},
		[3]string{"txn.moveall16_fallback_ns", "ns", lo},
		[3]string{"txn.atomic_1op_allocs", "count", lo},
		[3]string{"txn.fast_commits", "count", hi},
		[3]string{"txn.fallback_commits", "count", lo},
		[3]string{"txn.readonly_commits", "count", hi},
		[3]string{"txn.mcas_attempts", "count", lo},
		[3]string{"txn.mcas_failures", "count", lo},
		[3]string{"txn.restarts", "count", lo},
		[3]string{"txn.fallback_ops_per_s", "1/s", hi})
	add("speculate", "ops_per_s @ lib-compose", "sim-figures, unless speculate.Core changes — then pto_speedup and the exact rows move and must be declared",
		[3]string{"speculate.empty_try_ns", "ns", lo},
		[3]string{"speculate.self_ns", "ns", lo},
		[3]string{"speculate.attempts_per_op", "count", lo},
		[3]string{"speculate.commit_ratio", "ratio", hi},
		[3]string{"speculate.fallbacks", "count", lo},
		[3]string{"speculate.disables", "count", lo},
		[3]string{"speculate.helped", "count", hi})
	add("htm", "ops_per_s @ lib-compose (txn rows); pto_speedup @ lib-compose (multicas*, direct_cas); second-order ops_per_s @ serve-envelope", "serve-point, sim-figures",
		[3]string{"htm.empty_txn_ns", "ns", lo},
		[3]string{"htm.read1_txn_ns", "ns", lo},
		[3]string{"htm.rw1_txn_ns", "ns", lo},
		[3]string{"htm.rw8_txn_ns", "ns", lo},
		[3]string{"htm.load_ns_per_word", "ns", lo},
		[3]string{"htm.store_ns_per_word", "ns", lo},
		[3]string{"htm.direct_cas_ns", "ns", lo},
		[3]string{"htm.multicas2_ns", "ns", lo},
		[3]string{"htm.multicas8_ns", "ns", lo},
		[3]string{"htm.multivalidate8_ns", "ns", lo},
		[3]string{"htm.rw1_txn_allocs", "count", lo},
		[3]string{"htm.commits", "count", hi},
		[3]string{"htm.conflicts_per_kcommit", "count", lo},
		[3]string{"htm.false_conflict_share", "ratio", lo},
		[3]string{"htm.capacity_aborts", "count", lo},
		[3]string{"htm.explicit_aborts", "count", lo},
		[3]string{"htm.remaps", "count", lo})
	add("structures", "ops_per_s @ lib-compose; ops_per_s @ serve-envelope (hashtable, skiplist)", "sim-figures",
		[3]string{"hashtable.pto_op_ns", "ns", lo},
		[3]string{"hashtable.lockfree_op_ns", "ns", lo},
		[3]string{"skiplist.pto_op_ns", "ns", lo},
		[3]string{"skiplist.lockfree_op_ns", "ns", lo},
		[3]string{"bst.pto_op_ns", "ns", lo},
		[3]string{"bst.lockfree_op_ns", "ns", lo},
		[3]string{"list.pto_op_ns", "ns", lo},
		[3]string{"list.lockfree_op_ns", "ns", lo},
		[3]string{"msqueue.pto_op_ns", "ns", lo},
		[3]string{"msqueue.lockfree_op_ns", "ns", lo},
		[3]string{"mound.pto_op_ns", "ns", lo},
		[3]string{"mound.lockfree_op_ns", "ns", lo},
		[3]string{"mindicator.pto_op_ns", "ns", lo},
		[3]string{"mindicator.lockfree_op_ns", "ns", lo})
	add("telemetry/tune", "p99_ms @ serve workloads (background work taking one of two cores)", "lib-compose, sim-figures",
		[3]string{"telemetry.snapshot_ns", "ns", lo},
		[3]string{"tune.step_ns", "ns", lo},
		[3]string{"tune.actions", "count", lo},
		[3]string{"tune.remap_actions", "count", lo},
		[3]string{"tune.batch_actions", "count", lo},
		[3]string{"tune.budget_actions", "count", lo},
		[3]string{"tune.stripes_final", "count", lo})
	add("go runtime", "p99_ms, rss_peak_mb @ runtime workloads", "",
		[3]string{"runtime.alloc_bytes_per_op", "B", lo},
		[3]string{"runtime.mallocs_per_op", "count", lo},
		[3]string{"runtime.gc_cycles", "count", lo},
		[3]string{"runtime.gc_pause_total_ms", "ms", lo})
	add("sim", "ops_per_s, p50_ms @ sim-figures", "all runtime workloads",
		[3]string{"sim.new_ns", "ns", lo},
		[3]string{"sim.host_ns_per_event_1t", "ns", lo},
		[3]string{"sim.host_ns_per_event_8t", "ns", lo},
		[3]string{"sim.host_ns_per_tx_8t", "ns", lo},
		[3]string{"sim.probe_tx_commit_ratio_8t", "ratio", hi})
	add("simds/simspec/simtxn", "pto_speedup @ sim-figures (exact rows); ops_per_s @ sim-figures (host rows)", "all runtime workloads",
		[3]string{"simds.host_ns_per_op_hash_8t", "ns", lo},
		[3]string{"simds.host_ns_per_op_bst_8t", "ns", lo},
		[3]string{"simds.fences_per_op_bst_lockfree", "count", lo},
		[3]string{"simds.fences_per_op_bst_pto", "count", lo},
		[3]string{"simds.cas_per_op_bst_lockfree", "count", lo},
		[3]string{"simds.cas_per_op_bst_pto", "count", lo},
		[3]string{"simds.allocs_per_op_hash_lockfree", "count", lo},
		[3]string{"simds.allocs_per_op_hash_pto", "count", lo},
		[3]string{"simtxn.host_ns_per_move_4t", "ns", lo},
		[3]string{"simtxn.move_fast_ops_per_simms_4t", "1/simms", hi},
		[3]string{"simtxn.move_fallback_ops_per_simms_4t", "1/simms", hi})
	add("bench", "ops_per_s, p50_ms, p99_ms @ sim-figures (host rows); pto_speedup @ sim-figures (exact rows)", "all runtime workloads",
		[3]string{"bench.fig2a_host_s", "s", lo},
		[3]string{"bench.fig2b_host_s", "s", lo},
		[3]string{"bench.fig3b_host_s", "s", lo},
		[3]string{"bench.fig4b_host_s", "s", lo},
		[3]string{"bench.a8_host_s", "s", lo},
		[3]string{"bench.fig3b_tree_pto_8t", "1/simms", hi},
		[3]string{"bench.fig4b_hash_pto_8t", "1/simms", hi},
		[3]string{"bench.fig2b_mound_pto_8t", "1/simms", hi},
		[3]string{"bench.a8_fast_8t", "1/simms", hi},
		[3]string{"bench.pto_ops_per_simms", "1/simms", hi})
	add("benchmark", "", "",
		[3]string{"trace.server_self_share", "ratio", lo},
		[3]string{"trace.txn_self_share", "ratio", lo},
		[3]string{"trace.client_self_share", "ratio", lo},
		[3]string{"trace.overhead_pct", "%", lo})
	return out
}()

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

// manifest renders BENCHMARK.json from the tables above; a test keeps the
// committed file equal to it.
func manifest() []byte {
	// The driver's schema has exactly these keys; the rest of the tables goes
	// into result.json.
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("manifest: %v", err))
	}
	return append(b, '\n')
}
