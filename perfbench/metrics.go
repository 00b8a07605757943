package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions; TestMetricDefsMatchBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, reported by every workload
// with tracing off. A "job" is one assembly (reads in memory to contigs on
// rank 0) on the assembly workloads and one served overlap job (POST to the
// last hit read) on serve-mix.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},        // median job latency
	{"job_p90_ms", "ms", "lower"},   // 90th-percentile job latency
	{"jobs_per_s", "1/s", "higher"}, // jobs completed per second of the timed loop
	{"setup_s", "s", "lower"},       // median set-up: parse, world, plan, stores (serve: pool up to first ready response)
	{"peak_heap_mb", "MB", "lower"},
	{"hit_recall_1kb", "ratio", "higher"}, // true read pairs overlapping >= 1 kb that are hits
	{"hit_precision", "ratio", "higher"},  // hits whose reads truly overlap
	{"edge_precision", "ratio", "higher"}, // reduced-graph edges whose reads truly overlap
	{"contig_n50_bp", "bp", "higher"},
}

// perLayer is the traced pass's breakdown, one block per module. Times are
// the maximum over ranks unless the comment says sum; "self" excludes time
// inside the wrapped runtime calls.
var perLayer = []metricDef{
	// discover (pipeline, kmer, overlap)
	{"pipeline.discover_s", "s", "lower"},
	{"pipeline.discover_self_s", "s", "lower"},
	{"pipeline.discover_bytes", "bytes", "lower"}, // sum over ranks
	{"pipeline.occ_shipped", "count", "lower"},
	{"pipeline.retained_frac", "ratio", "higher"}, // retained / owned k-mers
	{"pipeline.dedup_ratio", "ratio", "higher"},   // pairs owned / emitted
	{"pipeline.tasks", "count", "lower"},
	// drivers (core)
	{"core.align_s", "s", "lower"},
	{"core.align_wait_s", "s", "lower"},  // self time in runtime calls during align
	{"core.imbalance", "ratio", "lower"}, // max / mean per-rank align span less its waits
	{"core.remote_reads", "count", "lower"},
	{"core.wire_fetches", "count", "lower"},
	{"core.exchange_bytes", "bytes", "lower"}, // align-stage bytes sent, sum
	{"core.supersteps", "count", "lower"},
	{"core.max_exchange_mb", "MB", "lower"}, // largest in-flight exchange or RPC payload on a rank
	// kernel (align)
	{"align.kernel_s", "s", "lower"},
	{"align.tasks", "count", "lower"},
	{"align.hits", "count", "higher"},
	{"align.hit_ratio", "ratio", "higher"},
	{"align.gcells", "Gcells", "lower"},
	{"align.gcells_per_s", "Gcells/s", "higher"}, // summed cells over summed kernel time
	{"align.task_p50_us", "us", "lower"},
	{"align.task_p99_us", "us", "lower"},
	{"align.swar_frac", "ratio", "higher"},
	{"align.lane_occupancy", "ratio", "higher"},
	// assembly (graph)
	{"graph.build_s", "s", "lower"},
	{"graph.reduce_s", "s", "lower"},
	{"graph.contigs_s", "s", "lower"},
	{"graph.edges", "count", "lower"},
	{"graph.edges_reduced", "count", "lower"},
	{"graph.fetches", "count", "lower"},
	{"graph.coalesced", "count", "higher"},
	{"graph.bytes", "bytes", "lower"},
	// runtime (rt, par, dist, transport)
	{"rt.alltoallv_calls", "count", "lower"},
	{"rt.alltoallv_s", "s", "lower"},
	{"rt.allreduce_calls", "count", "lower"},
	{"rt.barrier_s", "s", "lower"},
	{"rt.rpc_calls", "count", "lower"},
	{"rt.rpc_rtt_p50_us", "us", "lower"},
	{"rt.rpc_rtt_p99_us", "us", "lower"},
	{"rt.drain_s", "s", "lower"},
	{"rt.msgs", "count", "lower"},
	{"rt.bytes_sent", "bytes", "lower"},
	{"rt.probe_barrier_us", "us", "lower"},
	{"rt.probe_alltoallv_64k_us", "us", "lower"},
	{"rt.probe_rpc_rtt_us", "us", "lower"},
	// service (serve)
	{"serve.run_p50_ms", "ms", "lower"},
	{"serve.run_p90_ms", "ms", "lower"},
	{"serve.overhead_p50_ms", "ms", "lower"},
	{"serve.overhead_p90_ms", "ms", "lower"},
	{"serve.refused", "count", "lower"},
	{"serve.retries", "count", "lower"},
	{"serve.job_align_share", "ratio", "higher"},
	// honesty of the traced pass, and the host it ran on
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.stage_coverage", "ratio", "higher"},
	{"host.calib_ms", "ms", "lower"},
}
