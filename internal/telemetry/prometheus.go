package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
)

// Prometheus metric names emitted by WritePrometheus. Counters carry a
// {site="..."} label, plus {level="fast|middle|..."} when the site was
// registered per speculation level; aborts additionally carry
// {reason="conflict|capacity|explicit"}; the latency histogram follows the
// standard _bucket/_sum/_count convention with cumulative le bounds in
// seconds.
const (
	MetricAttempts  = "pto_speculation_attempts_total"
	MetricCommits   = "pto_speculation_commits_total"
	MetricAborts    = "pto_speculation_aborts_total"
	MetricFallbacks = "pto_speculation_fallbacks_total"
	MetricDisables  = "pto_speculation_adaptive_disables_total"
	MetricSkipped   = "pto_speculation_skipped_ops_total"
	MetricHelped    = "pto_speculation_helped_descs_total"
	MetricLatency   = "pto_speculation_latency_seconds"

	// Composed-operation metrics (internal/txn). Ops carry a {site="..."}
	// label; commits additionally carry {path="fast|fallback|readonly"}; the
	// width histogram follows the _bucket/_sum/_count convention with
	// cumulative le bounds in MCAS entries.
	MetricComposedOps      = "pto_composed_ops_total"
	MetricComposedCommits  = "pto_composed_commits_total"
	MetricComposedMCAS     = "pto_composed_mcas_attempts_total"
	MetricComposedMCASFail = "pto_composed_mcas_failures_total"
	MetricComposedRestarts = "pto_composed_restarts_total"
	MetricComposedWidth    = "pto_composed_mcas_width"

	// Open-transaction metrics (internal/semtx). Txns carry a {site="..."}
	// label; retries carry {reason="conflict_semantic|user"} — the semantic
	// layer's abort taxonomy above the word-level reasons of MetricAborts;
	// the ops histogram follows the _bucket/_sum/_count convention with
	// cumulative le bounds in structure operations per body.
	MetricOpenTxns    = "pto_open_txns_total"
	MetricOpenRetries = "pto_open_retries_total"
	MetricOpenOps     = "pto_open_ops_per_txn"
)

// Abort reason labels carried by MetricAborts' {reason="..."} series.
// ReasonConflict, ReasonCapacity, and ReasonExplicit mirror the simulated
// machine's abort Status strings one-for-one (a golden test in
// internal/simspec pins the parity), so dashboards can join modeled and
// runtime abort mixes by label.
const (
	ReasonConflict = "conflict"
	ReasonCapacity = "capacity"
	ReasonExplicit = "explicit"
)

// siteLabels renders a site snapshot's label set, without braces: the site
// name plus, for per-level sites, the level label.
func siteLabels(s SiteSnapshot) string {
	if s.Level == "" {
		return fmt.Sprintf("site=%q", s.Name)
	}
	return fmt.Sprintf("site=%q,level=%q", s.Name, s.Level)
}

// WritePrometheus renders every site of the registry in Prometheus text
// exposition format (version 0.0.4). Sites are emitted in name order so the
// output is stable for diffing and scraping tests.
//
// Every metric family comes from one Snapshot, so the families describe the
// same instant.
func (r *Registry) WritePrometheus(w io.Writer) {
	all := r.Snapshot()
	snap := all.Sites
	sort.Slice(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name })

	fmt.Fprintf(w, "# HELP %s Speculative transaction attempts per site.\n", MetricAttempts)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricAttempts)
	for _, s := range snap {
		fmt.Fprintf(w, "%s{%s} %d\n", MetricAttempts, siteLabels(s), s.Attempts)
	}
	fmt.Fprintf(w, "# HELP %s Committed speculative transactions per site.\n", MetricCommits)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricCommits)
	for _, s := range snap {
		fmt.Fprintf(w, "%s{%s} %d\n", MetricCommits, siteLabels(s), s.Commits)
	}
	fmt.Fprintf(w, "# HELP %s Aborted speculative attempts per site, by abort reason.\n", MetricAborts)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricAborts)
	for _, s := range snap {
		fmt.Fprintf(w, "%s{%s,reason=%q} %d\n", MetricAborts, siteLabels(s), ReasonConflict, s.Conflicts)
		fmt.Fprintf(w, "%s{%s,reason=%q} %d\n", MetricAborts, siteLabels(s), ReasonCapacity, s.Capacity)
		fmt.Fprintf(w, "%s{%s,reason=%q} %d\n", MetricAborts, siteLabels(s), ReasonExplicit, s.Explicit)
	}
	fmt.Fprintf(w, "# HELP %s Operations completed by the nonblocking fallback per site.\n", MetricFallbacks)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricFallbacks)
	for _, s := range snap {
		fmt.Fprintf(w, "%s{%s} %d\n", MetricFallbacks, siteLabels(s), s.Fallbacks)
	}
	fmt.Fprintf(w, "# HELP %s Adaptive-disable events per site.\n", MetricDisables)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricDisables)
	for _, s := range snap {
		fmt.Fprintf(w, "%s{%s} %d\n", MetricDisables, siteLabels(s), s.Disables)
	}
	fmt.Fprintf(w, "# HELP %s Operations that skipped speculation while adaptively disabled.\n", MetricSkipped)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricSkipped)
	for _, s := range snap {
		fmt.Fprintf(w, "%s{%s} %d\n", MetricSkipped, siteLabels(s), s.Skipped)
	}
	fmt.Fprintf(w, "# HELP %s MultiCAS descriptors helped to decision between speculative attempts, outside any transaction, per site.\n", MetricHelped)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricHelped)
	for _, s := range snap {
		fmt.Fprintf(w, "%s{%s} %d\n", MetricHelped, siteLabels(s), s.Helped)
	}
	fmt.Fprintf(w, "# HELP %s Speculative-phase latency per site.\n", MetricLatency)
	fmt.Fprintf(w, "# TYPE %s histogram\n", MetricLatency)
	for _, s := range snap {
		var cum uint64
		for i, c := range s.SpecNanos.Buckets {
			cum += c
			if ub := BucketUpperBound(i); ub != 0 {
				fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n",
					MetricLatency, siteLabels(s), float64(ub)/1e9, cum)
			}
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", MetricLatency, siteLabels(s), cum)
		fmt.Fprintf(w, "%s_sum{%s} %g\n", MetricLatency, siteLabels(s), float64(s.SpecNanos.SumNs)/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", MetricLatency, siteLabels(s), s.SpecNanos.Count)
	}

	comp := all.Composed
	if len(comp) == 0 {
		writePrometheusOpen(w, all.Open)
		return
	}
	sort.Slice(comp, func(i, j int) bool { return comp[i].Name < comp[j].Name })
	fmt.Fprintf(w, "# HELP %s Completed composed operations per site.\n", MetricComposedOps)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricComposedOps)
	for _, c := range comp {
		fmt.Fprintf(w, "%s{site=%q} %d\n", MetricComposedOps, c.Name, c.Ops)
	}
	fmt.Fprintf(w, "# HELP %s Composed-operation commits per site, by completion path.\n", MetricComposedCommits)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricComposedCommits)
	for _, c := range comp {
		fmt.Fprintf(w, "%s{site=%q,path=\"fast\"} %d\n", MetricComposedCommits, c.Name, c.FastCommits)
		fmt.Fprintf(w, "%s{site=%q,path=\"fallback\"} %d\n", MetricComposedCommits, c.Name, c.FallbackCommits)
		fmt.Fprintf(w, "%s{site=%q,path=\"readonly\"} %d\n", MetricComposedCommits, c.Name, c.ReadOnlyCommits)
	}
	fmt.Fprintf(w, "# HELP %s Fallback MultiCAS publication attempts per site.\n", MetricComposedMCAS)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricComposedMCAS)
	for _, c := range comp {
		fmt.Fprintf(w, "%s{site=%q} %d\n", MetricComposedMCAS, c.Name, c.MCASAttempts)
	}
	fmt.Fprintf(w, "# HELP %s Fallback MultiCAS publications that lost their validation race.\n", MetricComposedMCASFail)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricComposedMCASFail)
	for _, c := range comp {
		fmt.Fprintf(w, "%s{site=%q} %d\n", MetricComposedMCASFail, c.Name, c.MCASFailures)
	}
	fmt.Fprintf(w, "# HELP %s Fallback capture re-runs (helping or stale view) per site.\n", MetricComposedRestarts)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricComposedRestarts)
	for _, c := range comp {
		fmt.Fprintf(w, "%s{site=%q} %d\n", MetricComposedRestarts, c.Name, c.Restarts)
	}
	fmt.Fprintf(w, "# HELP %s MCAS width (entries) of fallback publications per site.\n", MetricComposedWidth)
	fmt.Fprintf(w, "# TYPE %s histogram\n", MetricComposedWidth)
	for _, c := range comp {
		var cum uint64
		for i, n := range c.Width.Buckets {
			cum += n
			if ub := WidthBucketBound(i); ub != 0 {
				fmt.Fprintf(w, "%s_bucket{site=%q,le=\"%d\"} %d\n", MetricComposedWidth, c.Name, ub, cum)
			}
		}
		fmt.Fprintf(w, "%s_bucket{site=%q,le=\"+Inf\"} %d\n", MetricComposedWidth, c.Name, cum)
		fmt.Fprintf(w, "%s_sum{site=%q} %d\n", MetricComposedWidth, c.Name, c.Width.Sum)
		fmt.Fprintf(w, "%s_count{site=%q} %d\n", MetricComposedWidth, c.Name, c.Width.Count)
	}
	writePrometheusOpen(w, all.Open)
}

// writePrometheusOpen renders the open-transaction sites, in name order.
func writePrometheusOpen(w io.Writer, open []OpenSnapshot) {
	if len(open) == 0 {
		return
	}
	sort.Slice(open, func(i, j int) bool { return open[i].Name < open[j].Name })
	fmt.Fprintf(w, "# HELP %s Committed open transactions per site.\n", MetricOpenTxns)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricOpenTxns)
	for _, o := range open {
		fmt.Fprintf(w, "%s{site=%q} %d\n", MetricOpenTxns, o.Name, o.Txns)
	}
	fmt.Fprintf(w, "# HELP %s Open-transaction body re-runs and abandons per site, by reason.\n", MetricOpenRetries)
	fmt.Fprintf(w, "# TYPE %s counter\n", MetricOpenRetries)
	for _, o := range open {
		fmt.Fprintf(w, "%s{site=%q,reason=\"conflict_semantic\"} %d\n", MetricOpenRetries, o.Name, o.SemRetries)
		fmt.Fprintf(w, "%s{site=%q,reason=\"user\"} %d\n", MetricOpenRetries, o.Name, o.UserAborts)
	}
	fmt.Fprintf(w, "# HELP %s Structure operations per committed open-transaction body.\n", MetricOpenOps)
	fmt.Fprintf(w, "# TYPE %s histogram\n", MetricOpenOps)
	for _, o := range open {
		var cum uint64
		for i, n := range o.OpsPerTxn.Buckets {
			cum += n
			if ub := WidthBucketBound(i); ub != 0 {
				fmt.Fprintf(w, "%s_bucket{site=%q,le=\"%d\"} %d\n", MetricOpenOps, o.Name, ub, cum)
			}
		}
		fmt.Fprintf(w, "%s_bucket{site=%q,le=\"+Inf\"} %d\n", MetricOpenOps, o.Name, cum)
		fmt.Fprintf(w, "%s_sum{site=%q} %d\n", MetricOpenOps, o.Name, o.OpsPerTxn.Sum)
		fmt.Fprintf(w, "%s_count{site=%q} %d\n", MetricOpenOps, o.Name, o.OpsPerTxn.Count)
	}
}

// Handler returns an http.Handler serving the registry in Prometheus text
// exposition format, suitable for mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
