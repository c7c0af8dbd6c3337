package main

import "fmt"

// metricDef declares one metric the benchmark prints. BENCHMARK.json is
// generated from these tables (`-manifest`), and a test keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a caller of the system sees, printed by every
// workload with -trace 0. Bound is the share of the parent's median by
// which the metric may worsen. The bounds are as wide as they are
// because the sandbox's CPU speed itself wanders by a tenth from second
// to second: README.md records the spread each one was set against.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"qps", "1/s", higher, 0.20},
	{"latency_ms_p50", "ms", lower, 0.25},
	{"latency_ms_p95", "ms", lower, 0.25},
	{"store_bytes_per_triple", "B", lower, 0.03},
	{"peak_rss_mb", "MB", lower, 0.15},
}

// perLayer are the single-layer metrics of the traced run (-trace 1),
// named <module>.<metric>. A metric that does not apply to a workload
// (no server under lib_cold, no mutator outside serve_mixed) prints 0.
var perLayer = []metricDef{
	{"driver.samples", "count", higher, 0},
	{"driver.latency_ms_p99", "ms", lower, 0},
	{"driver.latency_ms_max", "ms", lower, 0},
	{"driver.late_ms_p95", "ms", lower, 0},
	{"driver.update_ms_p50", "ms", lower, 0},

	{"server.http_overhead_us", "us", lower, 0},
	{"server.handler_self_us", "us", lower, 0},
	{"server.encode_ns_per_row", "ns", lower, 0},
	{"server.resp_bytes_per_row", "B", lower, 0},
	{"server.rejected_429", "count", lower, 0},
	{"server.status_5xx", "count", lower, 0},

	{"sparql.parse_us", "us", lower, 0},
	{"sparql.encode_us", "us", lower, 0},

	{"plancache.hit_rate", "ratio", higher, 0},
	{"plancache.hit_path_us", "us", lower, 0},
	{"plancache.invalidations", "count", lower, 0},
	{"plancache.reprices", "count", lower, 0},
	{"plancache.evictions", "count", lower, 0},

	{"core.optimize_us.gcov", "us", lower, 0},
	{"core.optimize_us.ecov", "us", lower, 0},
	{"core.covers_explored.gcov", "count", lower, 0},
	{"core.covers_explored.ecov", "count", lower, 0},
	{"core.optimize_share.gcov", "ratio", lower, 0},
	{"core.optimize_share.ecov", "ratio", lower, 0},

	{"reformulate.us_per_query", "us", lower, 0},
	{"reformulate.total_cqs", "count", lower, 0},

	{"stats.pattern_count_ns_cold", "ns", lower, 0},
	{"stats.pattern_count_ns_warm", "ns", lower, 0},
	{"cost.card_qerror_p50", "ratio", lower, 0},

	{"feedback.observations", "count", higher, 0},
	{"feedback.drift_events", "count", lower, 0},
	{"feedback.mean_card_error", "ratio", lower, 0},
	{"feedback.mean_cost_error", "ratio", lower, 0},

	{"engine.eval_ms_per_pass", "ms", lower, 0},
	{"engine.tuples_scanned", "count", lower, 0},
	{"engine.rows_joined", "count", lower, 0},
	{"engine.rows_materialized", "count", lower, 0},
	{"engine.rows_deduped", "count", lower, 0},
	{"engine.union_arms", "count", lower, 0},
	{"engine.work", "count", lower, 0},
	{"engine.ns_per_tuple_scanned", "ns", lower, 0},
	{"engine.tuples_per_result", "ratio", lower, 0},
	{"engine.answer_stored_bytes", "B", lower, 0},
	{"engine.factorized_answers", "count", higher, 0},
	{"engine.parallel_speedup", "ratio", higher, 0},

	{"storage.scan_ns_per_triple", "ns", lower, 0},
	{"storage.seek_ns", "ns", lower, 0},
	{"storage.range_ok_share", "ratio", higher, 0},
	{"storage.snapshot_pin_ns", "ns", lower, 0},
	{"storage.blocks", "count", lower, 0},
	{"storage.index_bytes_per_triple", "B", lower, 0},
	{"storage.load_triples_per_s", "1/s", higher, 0},
	{"storage.add_us", "us", lower, 0},
	{"storage.remove_us", "us", lower, 0},
	{"storage.compact_ms", "ms", lower, 0},
	{"storage.delta_scan_penalty", "ratio", lower, 0},

	{"dict.decode_ns_per_term", "ns", lower, 0},
	{"dict.lookup_ns_per_term", "ns", lower, 0},
	{"repro.each_ns_per_row", "ns", lower, 0},

	{"saturate.build_s", "s", lower, 0},
	{"saturate.implicit_triples", "count", lower, 0},

	{"runtime.alloc_kb_per_op", "kB", lower, 0},
	{"runtime.allocs_per_op", "count", lower, 0},
	{"runtime.gc_cpu_share", "ratio", lower, 0},
	{"runtime.gc_pause_ms_max", "ms", lower, 0},
	{"runtime.heap_inuse_mb_peak", "MB", lower, 0},
	{"trace.overhead_share", "ratio", lower, 0},

	// Self-time shares of the blocking path of one request in the traced
	// window; they sum to 1.
	{"share.net_http", "ratio", lower, 0},
	{"share.server", "ratio", lower, 0},
	{"share.sparql", "ratio", lower, 0},
	{"share.optimize", "ratio", lower, 0},
	{"share.engine", "ratio", lower, 0},
	{"share.result_iter", "ratio", lower, 0},
	{"share.glue", "ratio", lower, 0},
}

// metricValue is one printed measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against one declared table,
// so a run can neither print an undeclared name nor omit a declared one.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

// newMetricSet starts a set over defs; zeroed presets every metric to 0
// (per-layer metrics that do not apply to the workload stay there).
func newMetricSet(defs []metricDef, zeroed bool) *metricSet {
	m := &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
	if zeroed {
		for _, d := range defs {
			m.values[d.Name] = metricValue{Unit: d.Unit}
		}
	}
	return m
}

// setAll records the measured values, reporting an undeclared name.
func (m *metricSet) setAll(vals map[string]float64) error {
	units := make(map[string]string, len(m.defs))
	for _, d := range m.defs {
		units[d.Name] = d.Unit
	}
	for name, v := range vals {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("metric %q is not declared", name)
		}
		m.values[name] = metricValue{Value: v, Unit: unit}
	}
	return nil
}

// complete reports the first declared metric that has no value.
func (m *metricSet) complete() error {
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			return fmt.Errorf("metric %q was not measured", d.Name)
		}
	}
	return nil
}
