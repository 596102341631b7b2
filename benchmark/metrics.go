package main

import (
	"sort"

	"repro/internal/experiments"
)

// metricDef declares one metric the benchmark emits. The end-to-end table
// below and BENCHMARK.json at the repo root state the same thing twice —
// the driver reads the JSON, the comparator and the printer read this — and
// TestDeclaredMetricsMatchBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median by which it may worsen; 0 for layer metrics
}

// endToEnd are the numbers a user of the system feels, measured with tracing
// off and emitted by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"plan_regret_pct", "%", "lower", 0.25},
	{"model_err_pct", "%", "lower", 0.07},
}

// layerMetrics are the per-layer numbers of a -trace run, grouped by the
// workload whose end-to-end metrics they explain (see README.md for the
// expected interactions). Every trace run emits all of them: the named
// workload's group comes from its full traced window, the other groups from
// a short traced batch of their workload.
func layerMetrics() []metricDef {
	m := []metricDef{
		{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},

		// advise-cold
		{Name: "core.build_models_ms", Unit: "ms", Better: "lower"},
		{Name: "core.probe_exec_busy_ms", Unit: "ms", Better: "lower"},
		{Name: "core.probe_exec_calls", Unit: "count", Better: "lower"},
		{Name: "core.probe_scaling_busy_ms", Unit: "ms", Better: "lower"},
		{Name: "core.probe_scaling_calls", Unit: "count", Better: "lower"},
		{Name: "core.probe_parallelism", Unit: "ratio", Better: "higher"},
		{Name: "core.fit_et_us", Unit: "us", Better: "lower"},
		{Name: "core.fit_scaling_us", Unit: "us", Better: "lower"},
		{Name: "core.table_build_us", Unit: "us", Better: "lower"},
		{Name: "core.plan_us", Unit: "us", Better: "lower"},
		{Name: "core.advise_self_ms", Unit: "ms", Better: "lower"},
		{Name: "core.advise_allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "core.advise_alloc_kb_per_op", Unit: "KB", Better: "lower"},
		{Name: "core.build_grid_models_ms", Unit: "ms", Better: "lower"},
		{Name: "platform.run_1inst_us", Unit: "us", Better: "lower"},
		{Name: "platform.run_5000_ms", Unit: "ms", Better: "lower"},
		{Name: "stats.expfit_us", Unit: "us", Better: "lower"},
		{Name: "stats.polyfit_us", Unit: "us", Better: "lower"},

		// burst-1m
		{Name: "platform.run_ms", Unit: "ms", Better: "lower"},
		{Name: "platform.ns_per_instance", Unit: "ns", Better: "lower"},
		{Name: "platform.alloc_bytes_per_instance", Unit: "B", Better: "lower"},
		{Name: "platform.allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "platform.pool_warmup_ms", Unit: "ms", Better: "lower"},
		{Name: "trace.from_result_ms", Unit: "ms", Better: "lower"},
		{Name: "platform.spans_per_instance", Unit: "count", Better: "lower"},
		{Name: "obs.recorder_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "platform.sharded8_ms", Unit: "ms", Better: "lower"},
		{Name: "platform.sharded8_speedup", Unit: "ratio", Better: "higher"},
		{Name: "sim.engine_ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.station_ns_per_job", Unit: "ns", Better: "lower"},

		// figures-quick (one experiments.<id>_ms per driver is appended below)
		{Name: "baseline.sweep_c2000_ms", Unit: "ms", Better: "lower"},
		{Name: "baseline.sweep_parallel_speedup", Unit: "ratio", Better: "higher"},
		{Name: "orchestrator.run_propack_ms", Unit: "ms", Better: "lower"},
		{Name: "platform.run_faulty_ms", Unit: "ms", Better: "lower"},
		{Name: "platform.run_mixed_ms", Unit: "ms", Better: "lower"},
		{Name: "core.plan_mixed_ms", Unit: "ms", Better: "lower"},
		{Name: "stats.chi2_us", Unit: "us", Better: "lower"},

		// serve-mix
		{Name: "server.handler_us.advise", Unit: "us", Better: "lower"},
		{Name: "server.handler_us.plan", Unit: "us", Better: "lower"},
		{Name: "server.handler_us.qos", Unit: "us", Better: "lower"},
		{Name: "server.handler_us.joint", Unit: "us", Better: "lower"},
		{Name: "server.handler_us.mixed", Unit: "us", Better: "lower"},
		{Name: "server.stage_limit_us", Unit: "us", Better: "lower"},
		{Name: "server.stage_admit_us", Unit: "us", Better: "lower"},
		{Name: "server.stage_plan_us", Unit: "us", Better: "lower"},
		{Name: "server.other_us", Unit: "us", Better: "lower"},
		{Name: "server.telemetry_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "server.allocs_per_req", Unit: "count", Better: "lower"},
		{Name: "server.alloc_kb_per_req", Unit: "KB", Better: "lower"},
		{Name: "server.admitted_ratio", Unit: "ratio", Better: "higher"},
		{Name: "server.pool_build_ms", Unit: "ms", Better: "lower"},
		{Name: "server.http_roundtrip_p50_us", Unit: "us", Better: "lower"},
		{Name: "core.plan_cached_ns", Unit: "ns", Better: "lower"},
		{Name: "core.plan_miss_us", Unit: "us", Better: "lower"},
		{Name: "core.table_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "core.qos_plan_us", Unit: "us", Better: "lower"},
		{Name: "core.qos_joint_us", Unit: "us", Better: "lower"},
		{Name: "core.joint_plan_cached_ns", Unit: "ns", Better: "lower"},
		{Name: "core.grid_table_build_us", Unit: "us", Better: "lower"},
		{Name: "core.planner_concurrent_ns", Unit: "ns", Better: "lower"},
		{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},
		{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
		{Name: "obs.prometheus_scrape_us", Unit: "us", Better: "lower"},
		{Name: "resilience.breaker_allow_record_ns", Unit: "ns", Better: "lower"},
	}
	for _, e := range experiments.All() {
		m = append(m, metricDef{Name: experimentMetric(e.ID), Unit: "ms", Better: "lower"})
	}
	return m
}

func experimentMetric(id string) string { return "experiments." + id + "_ms" }

// metricValue is one emitted number; the JSON shape is the driver's.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects measured numbers by metric name; units come from the
// declarations when they are emitted.
type values map[string]float64

// emit returns exactly the declared metrics with their units, and the names
// that were never measured.
func (v values) emit(defs []metricDef) (out map[string]metricValue, missing []string) {
	out = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	sort.Strings(missing)
	return out, missing
}
