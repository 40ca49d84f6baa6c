package main

import "fmt"

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units and directions;
// bench_test.go holds the two in step.
//
// Naming rule: a wall-clock metric ends in _s, _ms, _us, _ns or _qps; a
// virtual-clock metric starts with virt_ or is measured in U. The two
// ledgers never share a unit name.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off on every workload; BENCHMARK.json gates a later PR on them.
//
// The four wall-clock bounds are the largest the contract allows. The
// host this was defined on is a 2-vCPU slice of a shared machine, and
// whatever allocates — this engine makes 450 000 objects per query —
// runs into bursts, shorter than a second, that a pure ALU loop does not
// feel: depending on the minute, the median repetition of a class is
// 5–40 % slower than its fastest, and the fastest itself drifts by a few
// percent over minutes. The one-client workloads therefore report
// quiet-host walls (quietWalls in run.go); README.md, "How steady it is",
// has the spreads that leaves. allocs_per_query is a count and repeats
// to 0.03 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_qps", Unit: "queries/s", Better: "higher", Bound: 0.25},
	{Name: "query_wall_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_report_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.02},
}

// ungated are measured over the whole untraced pass like the end-to-end
// metrics, printed and stored with every end-to-end run and judged by
// -runs (a bound is a limit on the range; no bound means "must repeat
// exactly on a single-client workload"), but BENCHMARK.json does not
// gate on them. Why each is here:
//
//   - query_wall_p95_ms: a tail on this host spreads over 15–33 % of its
//     median across ten runs, above the largest bound the contract
//     allows in 3 of 8 sets measured; ISSUE's rule for a metric that
//     does not hold its bound is to demote it.
//   - virt_s_per_query, remaining_err_pct, done_u_per_query (the paper's
//     own ledger): the contract's driver wants every end-to-end metric
//     from every workload and rejects a timing that reads the same on
//     every run. remaining_err_pct has no value on serve_short, whose
//     sub-millisecond ops only ever send their terminal report, and a
//     virtual-clock mean is the same on every run by design. The traced
//     pass reports the same quantities per layer
//     (vclock.virt_s_per_query, core.remaining_err_pct,
//     core.done_u_per_query).
//
// failed_share is in neither list: it is 0 on a healthy run, and the
// contract carries it as attempted/failed/correct.
var ungated = []metricDef{
	{Name: "query_wall_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "virt_s_per_query", Unit: "virt_s", Better: "lower"},
	{Name: "remaining_err_pct", Unit: "%", Better: "lower"},
	{Name: "done_u_per_query", Unit: "U", Better: "lower"},
}

// perLayer are the single-layer metrics of the traced pass, named after
// the repo's packages. A metric a workload does not exercise (server.*
// and client.* on engine_*, the per-class exec.* on serve_short) reads 0
// there; README.md says which workload each one is read on.
var perLayer = []metricDef{
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.plan_us", Unit: "us", Better: "lower"},
	{Name: "segment.decompose_us", Unit: "us", Better: "lower"},
	{Name: "segment.segments_per_query", Unit: "count", Better: "lower"},
	{Name: "core.setup_us", Unit: "us", Better: "lower"},
	{Name: "core.refreshes_per_query", Unit: "count", Better: "lower"},
	{Name: "core.reporter_calls_per_query", Unit: "count", Better: "lower"},
	{Name: "core.done_u_per_query", Unit: "U", Better: "lower"},
	{Name: "core.remaining_err_pct", Unit: "%", Better: "lower"},
	{Name: "core.reporter_call_ns", Unit: "ns", Better: "lower"},
	{Name: "core.current_us", Unit: "us", Better: "lower"},
	{Name: "core.indicator_wall_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.indicator_modelled_pct", Unit: "%", Better: "lower"},
	{Name: "exec.run_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.inproc_p50_us", Unit: "us", Better: "lower"},
	{Name: "exec.q1_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q2_join3_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q3_corr_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q4_join3f_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q5_nl_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.agg_small_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.agg_large_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.semi_ms", Unit: "ms", Better: "lower"},
	{Name: "tuple.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "expr.evalbool_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.charge_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.virt_s_per_query", Unit: "virt_s", Better: "lower"},
	{Name: "storage.pool_hits", Unit: "count", Better: "higher"},
	{Name: "storage.pool_misses", Unit: "count", Better: "lower"},
	{Name: "storage.evictions", Unit: "count", Better: "lower"},
	{Name: "storage.pool_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "storage.disk_seq_reads", Unit: "count", Better: "lower"},
	{Name: "storage.disk_rand_reads", Unit: "count", Better: "lower"},
	{Name: "storage.disk_seq_writes", Unit: "count", Better: "lower"},
	{Name: "storage.disk_rand_writes", Unit: "count", Better: "lower"},
	{Name: "storage.temp_pages_written", Unit: "pages", Better: "lower"},
	{Name: "storage.pool_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.pool_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.scan_next_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.append_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.search_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.pages_per_search", Unit: "pages", Better: "lower"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.metrics_wall_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.metrics_modelled_pct", Unit: "%", Better: "lower"},
	{Name: "server.submit_handler_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.events_per_query", Unit: "count", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "server.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "client.submit_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.first_event_us", Unit: "us", Better: "lower"},
	{Name: "client.stream_us", Unit: "us", Better: "lower"},
	{Name: "client.result_us", Unit: "us", Better: "lower"},
	{Name: "runtime.alloc_kb_per_query", Unit: "KiB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "setup.load_s", Unit: "s", Better: "lower"},
	{Name: "setup.index_s", Unit: "s", Better: "lower"},
	{Name: "setup.warm_s", Unit: "s", Better: "lower"},
	{Name: "setup.server_start_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// measured is one metric's value from one run; N is the sample count
// behind a timing percentile (0 where it does not apply).
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload: the end-to-end metrics of the
// untraced pass, the per-layer metrics of the traced pass, or both.
type result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Ops       map[string]int      `json:"ops"` // per-class op counts of the list
	Attempted int                 `json:"ops_attempted"`
	Failed    int                 `json:"ops_failed"`
	Failures  []string            `json:"failures,omitempty"` // first few, for diagnosis
	Leaks     string              `json:"leaks,omitempty"`    // CheckLeaks error, "" = clean
	EndToEnd  map[string]measured `json:"end_to_end,omitempty"`
	Ungated   map[string]measured `json:"ungated,omitempty"`
	PerLayer  map[string]measured `json:"per_layer,omitempty"`
	// Quartiles carries the two wall ratios' quartiles: they are reported
	// so nobody mistakes a ratio near 1 for a resolved number.
	Quartiles map[string][2]float64 `json:"quartiles,omitempty"`
}

func (r *result) correct() bool { return r.Failed == 0 && r.Leaks == "" }

// merge folds a pass's failures into the result.
func (r *result) merge(p *pass) {
	r.Attempted += len(p.Outcomes)
	for i, o := range p.Outcomes {
		if o.Fail == "" {
			continue
		}
		r.Failed++
		if len(r.Failures) < 5 {
			r.Failures = append(r.Failures, fmt.Sprintf("op %d: %s", i+1, o.Fail))
		}
	}
}

// withUnits attaches each definition's unit to its value; a metric the
// run did not produce reads 0.
func withUnits(defs []metricDef, vals map[string]float64, n map[string]int) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		out[d.Name] = measured{Value: vals[d.Name], Unit: d.Unit, N: n[d.Name]}
	}
	return out
}
