package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names, units and bounds; TestCatalogueMatchesBenchmarkJSON keeps the
// two in step.

import (
	"fmt"
	"math"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd metrics are printed by untraced runs of every workload. The
// bounds are the widest allowed: on a shared 2-vCPU host the same run
// drifts by 10-20% within minutes (see README.md, "Noise").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"none_cpu_s", "s", "lower", 0.25},
	{"dsm_cpu_s", "s", "lower", 0.25},
	{"pass_ratio", "ratio", "higher", 0.01},
}

// perLayer metrics are printed by traced runs of every workload; a layer a
// workload bypasses reads 0 there.
var perLayer = []metricDef{
	{"solver.queries", "count", "lower", 0},
	{"solver.cache_hits", "count", "higher", 0},
	{"solver.model_reuse_hits", "count", "higher", 0},
	{"solver.hit_ratio", "ratio", "higher", 0},
	{"solver.sat_calls", "count", "lower", 0},
	{"solver.sat_s", "s", "lower", 0},
	{"solver.sat_share", "ratio", "lower", 0},
	{"solver.session_queries", "count", "higher", 0},
	{"solver.session_blast_reuse", "count", "higher", 0},
	{"solver.session_bypass", "count", "lower", 0},
	{"solver.session_rebases", "count", "lower", 0},
	{"solver.indep_sliced", "count", "higher", 0},
	{"solver.sat_vars", "count", "lower", 0},
	{"solver.sat_clauses", "count", "lower", 0},
	{"solver.query_ms.session", "ms", "lower", 0},
	{"solver.query_ms.oneshot", "ms", "lower", 0},
	{"solver.query_ms.cached", "ms", "lower", 0},
	{"solver.query_ms.summary", "ms", "lower", 0},
	{"solver.stable_hits", "count", "higher", 0},
	{"solver.stable_group_hits", "count", "higher", 0},
	{"corpus.tests", "count", "higher", 0},
	{"corpus.deduped", "count", "lower", 0},
	{"corpus.testgen_failures", "count", "lower", 0},
	{"corpus.exact_paths", "count", "higher", 0},
	{"corpus.testgen_s", "s", "lower", 0},
	{"corpus.testgen_queries", "count", "lower", 0},
	{"corpus.replay_s", "s", "lower", 0},
	{"corpus.digest_ms", "ms", "lower", 0},
	{"core.run_s", "s", "lower", 0},
	{"core.none_s", "s", "lower", 0},
	{"core.ssm_s", "s", "lower", 0},
	{"core.dsm_s", "s", "lower", 0},
	{"core.ssm_cpu_s", "s", "lower", 0},
	{"core.steps", "count", "lower", 0},
	{"core.forks", "count", "lower", 0},
	{"core.merge_attempts", "count", "lower", 0},
	{"core.merges", "count", "higher", 0},
	{"core.ff_selected", "count", "higher", 0},
	{"core.ff_merged", "count", "higher", 0},
	{"core.max_worklist", "count", "lower", 0},
	{"qce.merge_gate_ms", "ms", "lower", 0},
	{"qce.merge_rejects", "count", "lower", 0},
	{"qce.analyze_ms", "ms", "lower", 0},
	{"lang.compile_ms", "ms", "lower", 0},
	{"lang.ir_instrs", "count", "lower", 0},
	{"analysis.analyze_ms", "ms", "lower", 0},
	{"analysis.pruned_static", "count", "higher", 0},
	{"service.cold_s", "s", "lower", 0},
	{"service.warm_s", "s", "lower", 0},
	{"service.job_p50_ms", "ms", "lower", 0},
	{"service.job_p90_ms", "ms", "lower", 0},
	{"daemon.exec_s", "s", "lower", 0},
	{"daemon.overhead_ms", "ms", "lower", 0},
	{"daemon.queue_ms", "ms", "lower", 0},
	{"daemon.domains_rotated", "count", "lower", 0},
	{"store.cex_loaded", "count", "higher", 0},
	{"store.lookup_hits", "count", "higher", 0},
	{"store.inserts", "count", "lower", 0},
	{"store.segments", "count", "lower", 0},
	{"summary.hits", "count", "higher", 0},
	{"summary.seeded", "count", "higher", 0},
	{"expr.domain_nodes", "count", "lower", 0},
	{"go.peak_rss_mb", "MB", "lower", 0},
	{"go.alloc_mb", "MB", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_cpu_s", "s", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	{"host.steal_pct", "%", "lower", 0},
	{"obs.trace_overhead", "ratio", "lower", 0},
}

// selectMetrics renders the catalogue's metrics from the measured values and
// fails on any the workload did not set.
func selectMetrics(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
