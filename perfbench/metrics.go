package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (a self-test keeps the two in step); target
// records which end-to-end metric, on which workload, a per-layer metric
// is expected to move.
type metricDef struct {
	name, unit, better string
	target             string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on
// every workload. Host time unless noted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"max_rss_mb", "MB", "lower", ""},
	{"regen_s", "s", "lower", ""},
	{"sim_accesses_per_s", "1/s", "higher", ""},
	{"hit_p50_ms", "ms", "lower", ""},
	{"hit_p90_ms", "ms", "lower", ""},
	{"miss_p50_ms", "ms", "lower", ""},
	{"coalesced_p50_ms", "ms", "lower", ""},
	{"requests_per_s", "1/s", "higher", ""},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"exp.points", "count", "lower", "regen_s on fig2-stream"},
	{"exp.point_p50_ms", "ms", "lower", "regen_s on fig2-stream"},
	{"exp.point_max_ms", "ms", "lower", "regen_s on fig6-jacobi"},
	{"exp.worker_idle_pct", "%", "lower", "regen_s on fig6-jacobi; near 0 on fig2-stream"},
	{"exp.retries", "count", "lower", "error_pct on every workload"},
	{"exp.point_errors", "count", "lower", "error_pct on every workload"},
	{"chip.host_ns_per_access", "ns", "lower", "regen_s on every figure workload, miss_p50_ms on daemon-mix"},
	{"chip.ff_cycle_pct", "%", "higher", "regen_s on fig6-jacobi"},
	{"chip.ff_jumps", "count", "higher", "regen_s on fig6-jacobi"},
	{"chip.sim_cycles", "count", "lower", "none: simulated, a speed-only change leaves it identical"},
	{"chip.sim_accesses", "count", "lower", "none: simulated, a speed-only change leaves it identical"},
	{"chip.self_pct", "%", "lower", "regen_s on fig2-stream and fig6-jacobi"},
	{"sim.self_pct", "%", "lower", "regen_s on fig2-stream and fig6-jacobi"},
	{"cache.self_pct", "%", "lower", "regen_s on fig2-stream and fig6-jacobi"},
	{"mem.self_pct", "%", "lower", "regen_s on fig2-stream and fig6-jacobi"},
	{"cpu.self_pct", "%", "lower", "regen_s on fig2-stream and fig6-jacobi"},
	{"trace.self_pct", "%", "lower", "regen_s on fig2-stream and fig6-jacobi"},
	{"service.self_pct", "%", "lower", "hit_p50_ms on daemon-mix"},
	{"json.self_pct", "%", "lower", "hit_p50_ms on daemon-mix"},
	{"net.self_pct", "%", "lower", "hit_p50_ms on daemon-mix"},
	{"runtime.self_pct", "%", "lower", "regen_s and max_rss_mb on every workload"},
	{"trace.ns_per_item", "ns", "lower", "regen_s on fig6-jacobi"},
	{"cache.ns_per_access", "ns", "lower", "regen_s on fig6-jacobi"},
	{"cache.hit_pct", "%", "higher", "regen_s on fig6-jacobi"},
	{"mem.ns_per_line", "ns", "lower", "regen_s on fig2-stream"},
	{"model.l2_hit_pct", "%", "higher", "none: simulated"},
	{"model.mc_balance", "ratio", "higher", "none: simulated"},
	{"service.resolve_us", "us", "lower", "hit_p50_ms on daemon-mix"},
	{"service.cache_get_us", "us", "lower", "hit_p50_ms on daemon-mix"},
	{"service.cache_put_us", "us", "lower", "miss_p50_ms on daemon-mix"},
	{"service.miss_self_ms", "ms", "lower", "miss_p50_ms on daemon-mix"},
	{"http.healthz_p50_us", "us", "lower", "hit_p50_ms on daemon-mix"},
	{"service.hit_pct", "%", "higher", "requests_per_s on daemon-mix"},
	{"service.coalesced", "count", "higher", "requests_per_s on daemon-mix"},
	{"service.executions", "count", "lower", "requests_per_s on daemon-mix"},
	{"service.shed", "count", "lower", "error_pct on daemon-mix"},
	{"runtime.gc_cpu_pct", "%", "lower", "regen_s and max_rss_mb on every workload"},
	{"runtime.alloc_mb", "MB", "lower", "max_rss_mb on every workload"},
	{"tracing.overhead_pct", "%", "lower", "none: the cost of the traced run itself"},
	{"error_pct", "%", "lower", "none: must be 0 on every workload"},
	{"paper_err_pct", "%", "lower", "none: simulated fidelity of fig2 on t2 against the paper, from a direct run in every traced run"},
}
