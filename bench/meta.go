package main

// metricDef names one reported metric and its unit. The lists here are
// the code side of BENCHMARK.json; TestBenchmarkJSONMatchesCode fails
// when the two drift apart.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
}

// perLayerMetrics are reported by the traced run of every workload; a
// layer the workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"index.build_mem_ms", "ms"},
	{"index.build_disk_ms", "ms"},
	{"index.segment_bytes_per_posting", "B"},
	{"index.search_us_p50", "us"},
	{"index.timeseries_us_p50", "us"},
	{"index.random_reads_per_search", "count"},
	{"index.block_cache_hit_ratio", "ratio"},
	{"index.push_delta_ms", "ms"},
	{"index.compact_ms", "ms"},
	{"index.compactions", "count"},
	{"extsort.sort_ms", "ms"},
	{"extsort.spilled_runs", "count"},
	{"cooccur.build_ms_per_interval", "ms"},
	{"cooccur.pairs_per_interval", "count"},
	{"cooccur.prune_ms_per_interval", "ms"},
	{"bicc.decompose_ms_per_interval", "ms"},
	{"bicc.clusters_per_interval", "count"},
	{"clustergraph.build_ms", "ms"},
	{"clustergraph.edges", "count"},
	{"clustergraph.extend_ms_per_push", "ms"},
	{"simjoin.join_ms", "ms"},
	{"core.bfs_sub_ms", "ms"},
	{"core.bfs_full_ms", "ms"},
	{"core.dfs_ms", "ms"},
	{"core.ta_ms", "ms"},
	{"core.normalized_ms", "ms"},
	{"core.bfs_allocs", "count"},
	{"core.dfs_allocs", "count"},
	{"core.ta_allocs", "count"},
	{"core.normalized_allocs", "count"},
	{"core.bfs_node_reads", "count"},
	{"core.bfs_edge_reads", "count"},
	{"core.bfs_heap_considers", "count"},
	{"core.dfs_pruned_ratio", "ratio"},
	{"core.dfs_repushes", "count"},
	{"core.ta_random_seeks", "count"},
	{"core.normalized_peak_state_paths", "count"},
	{"plan.overhead_us", "us"},
	{"plan.explored", "count"},
	{"plan.exploited", "count"},
	{"engine.open_ms", "ms"},
	{"engine.keyword_query_us_p50", "us"},
	{"engine.solve_ms_p50", "ms"},
	{"engine.push_ms_p50", "ms"},
	{"engine.stage_builds", "count"},
	{"server.roundtrip_us_p50", "us"},
	{"server.handler_hit_us_p50", "us"},
	{"server.handler_miss_us_p50", "us"},
	{"server.socket_self_us", "us"},
	{"server.handler_self_us", "us"},
	{"server.allocs_per_hit", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_evictions", "count"},
	{"server.cache_invalidated_per_push", "count"},
	{"server.response_bytes_per_op", "B"},
	{"server.shed_total", "count"},
	{"server.gc_pause_ms_total", "ms"},
	{"raw.setup_s", "s"},
	{"raw.throughput_ops_s", "1/s"},
	{"raw.latency_p50_ms", "ms"},
	{"raw.latency_p95_ms", "ms"},
	{"raw.cpu_ms_per_op", "ms"},
	{"calib.kernel_ms_p50", "ms"},
	{"calib.kernel_iqr_pct", "%"},
	{"harness.client_cpu_ms_per_op", "ms"},
	{"harness.build_binary_s", "s"},
	{"proc.peak_rss_mb", "MiB"},
	{"trace.overhead_pct", "%"},
	{"trace.core_share_pct", "%"},
	{"trace.build_share_pct", "%"},
	{"trace.server_share_pct", "%"},
	{"trace.engine_share_pct", "%"},
}

// workloadDef is one workload: its name, the reason it exists (also in
// BENCHMARK.json) and its runner.
type workloadDef struct {
	name string
	why  string
	run  func(*runCtx) (*result, error)
}

var workloads = []workloadDef{
	{"build_batch", "offline Sections 3-4 pipeline per op: cooccur, extsort, bicc, simjoin/clustergraph and the index write path do the work; solver and HTTP stack almost none", runBuildBatch},
	{"solve_paper", "Section 5 synthetic graphs straight into core.Solve: the solver layer does all the work, no engine, index or HTTP around it", runSolvePaper},
	{"serve_hot", "Zipf GETs over 64 cached URLs on a real socket: net/http, middleware and response-cache read path are the cost; the engine is bypassed", runServeHot},
	{"serve_churn", "uniform keyword GETs beyond both caches, stable-cluster solves and pushes: engine miss path, planner, cold block reads, Engine.Push and cache churn do the work", runServeChurn},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// layerGroups maps the share metrics to the span layers they add up.
var layerGroups = map[string][]string{
	"trace.core_share_pct":   {"core"},
	"trace.build_share_pct":  {"cooccur", "bicc", "clustergraph", "simjoin", "extsort", "index"},
	"trace.server_share_pct": {"server"},
	"trace.engine_share_pct": {"engine", "core", "index", "plan"},
}
