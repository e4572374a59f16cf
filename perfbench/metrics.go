package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions; TestMetricsMatchManifest
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// moves is the end-to-end metric a per-layer one should move, and on
	// which workload.
	moves string
}

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "ok_frac", Unit: "frac", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "flows_finished", Unit: "count", Better: "higher"},
	{Name: "cost_per_flow_usd", Unit: "usd", Better: "lower"},
}

// perLayer are the metrics of a traced run, named <module>.<metric>.
var perLayer = []metricDef{
	{"sched.skyline_p50_ms", "ms", "lower", "latency_p50_ms, throughput_per_s on phase-720"},
	{"sched.skyline_p99_ms", "ms", "lower", "latency_p99_ms on phase-720"},
	{"sched.skyline_share", "frac", "lower", "latency_p50_ms on phase-720 (share of core.submit)"},
	{"sched.warm_hit_rate", "frac", "higher", "latency_p50_ms on phase-720"},
	{"interleave.self_ms", "ms", "lower", "latency_p50_ms on phase-720"},
	{"interleave.build_commit_frac", "frac", "higher", "cost_per_flow_usd, flows_finished on phase-720"},
	{"gain.rank_ms", "ms", "lower", "latency_p50_ms on phase-720, small-flows"},
	{"sim.execute_ms", "ms", "lower", "latency_p50_ms on phase-720"},
	{"check.audit_ms", "ms", "lower", "latency_p50_ms on phase-720, small-flows"},
	{"core.submit_p50_ms", "ms", "lower", "throughput_per_s on small-flows"},
	{"core.submit_p99_ms", "ms", "lower", "throughput_per_s on small-flows"},
	{"core.self_ms", "ms", "lower", "throughput_per_s on small-flows"},
	{"core.ops_per_flow", "count", "lower", "throughput_per_s on small-flows"},
	{"qaas.overhead_p50_ms", "ms", "lower", "latency_p99_ms on small-flows"},
	{"qaas.overhead_p99_ms", "ms", "lower", "latency_p99_ms on small-flows"},
	{"qaas.report_ms", "ms", "lower", "read_p95_ms, latency_p99_ms on small-flows"},
	{"qaas.batch_mean_size", "count", "higher", "latency_p99_ms on small-flows"},
	{"provenance.flow_events_ms", "ms", "lower", "read_p50_ms on small-flows"},
	{"flowlang.parse_us", "us", "lower", "throughput_per_s, latency_p99_ms on small-flows"},
	{"flowlang.alloc_kb", "kB", "lower", "throughput_per_s, latency_p99_ms on small-flows"},
	{"server.self_ms", "ms", "lower", "latency_p50_ms on small-flows"},
	{"pagestore.scan_ms", "ms", "lower", "latency_p50_ms, throughput_per_s on table6-columnar"},
	{"pagestore.pages_read_per_query", "count", "lower", "latency_p50_ms, throughput_per_s on table6-columnar"},
	{"exec.select_ms", "ms", "lower", "latency_p99_ms, throughput_per_s on table6-columnar"},
	{"exec.sort_ms", "ms", "lower", "latency_p99_ms, throughput_per_s on table6-columnar"},
	{"exec.group_ms", "ms", "lower", "latency_p99_ms, throughput_per_s on table6-columnar"},
	{"exec.join_ms", "ms", "lower", "latency_p50_ms, throughput_per_s on table6-columnar"},
	{"bptree.range_us", "us", "lower", "read_p50_ms on table6-columnar"},
	{"bptree.get_us", "us", "lower", "read_p50_ms on table6-columnar"},
	{"bptree.build_s", "s", "lower", "setup_s on table6-columnar"},
	{"trace.overhead_frac", "frac", "lower", "none: traced over untraced time of the same work"},
	{"trace.negative_frac", "frac", "lower", "none: share of requests whose layers measured by subtraction come out negative"},
}
