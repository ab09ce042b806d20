package main

// metricDef declares one metric of BENCHMARK.json. Bound is the share
// of the parent's median by which an end-to-end metric may worsen; the
// per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of gmark sees of a run, and every workload
// reports every one of them. BENCHMARK.json repeats this table; a test
// keeps the two equal.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer lists the traced run's metrics, layer = module name. A
// workload that does not drive a layer reports 0 for its metrics.
var perLayer = []metricDef{
	// graphgen: emission, sinks, on-disk formats.
	lower("graphgen.emit_s", "s"),
	lower("graphgen.emit_seq_s", "s"),
	higher("graphgen.emit_speedup", "x"),
	lower("graphgen.writer_sink_s", "s"),
	lower("graphgen.graph_sink_s", "s"),
	lower("graphgen.spill_write_s.varint", "s"),
	lower("graphgen.spill_write_s.raw", "s"),
	lower("graphgen.spill_write_s.deflate", "s"),
	lower("graphgen.partition_write_s.text", "s"),
	lower("graphgen.partition_write_s.binary", "s"),
	lower("graphgen.spill_flush_s.varint", "s"),
	lower("graphgen.spill_flush_s.raw", "s"),
	lower("graphgen.spill_open_s", "s"),
	lower("graphgen.shard_load_s.varint", "s"),
	lower("graphgen.shard_load_s.raw", "s"),
	lower("graphgen.shard_load_s.deflate", "s"),
	higher("graphgen.shard_load_mb_per_s.varint", "MB/s"),
	higher("graphgen.shard_load_mb_per_s.raw", "MB/s"),
	higher("graphgen.shard_load_mb_per_s.deflate", "MB/s"),
	lower("graphgen.spill_bytes_per_edge.none", "B"),
	lower("graphgen.spill_bytes_per_edge.raw", "B"),
	lower("graphgen.spill_bytes_per_edge.varint", "B"),
	lower("graphgen.spill_bytes_per_edge.deflate", "B"),
	lower("graphgen.partition_bytes_per_edge.text", "B"),
	lower("graphgen.partition_bytes_per_edge.binary", "B"),
	lower("graphgen.emit_predicate_s", "s"),
	lower("graphgen.emit_predicate_over_emit", "x"),
	// graph: the in-memory CSR.
	lower("graph.freeze_s", "s"),
	lower("graph.build_adjacency_s", "s"),
	// dist: the degree samplers under emission.
	lower("dist.sample_ns.uniform", "ns"),
	lower("dist.sample_ns.gaussian", "ns"),
	lower("dist.sample_ns.zipfian", "ns"),
	// querygen, selectivity, translate, workload: the query half.
	lower("querygen.new_s", "s"),
	lower("querygen.emit_s", "s"),
	lower("querygen.emit_seq_s", "s"),
	lower("querygen.window_s", "s"),
	lower("querygen.syntaxdir_s", "s"),
	lower("selectivity.estimator_new_s", "s"),
	lower("selectivity.estimate_us_per_query", "us"),
	lower("translate.sparql_us_per_query", "us"),
	lower("translate.cypher_us_per_query", "us"),
	lower("translate.sql_us_per_query", "us"),
	lower("translate.datalog_us_per_query", "us"),
	lower("workload.analyze_s", "s"),
	// eval: the reference evaluator, in memory and over a spill.
	lower("eval.count_s.constant", "s"),
	lower("eval.count_s.linear", "s"),
	lower("eval.count_s.quadratic", "s"),
	lower("eval.count_s.len", "s"),
	lower("eval.count_s.dis", "s"),
	lower("eval.count_s.con", "s"),
	lower("eval.count_s.rec", "s"),
	lower("eval.count_seq_s", "s"),
	higher("eval.par_speedup", "x"),
	lower("eval.query_p50_ms", "ms"),
	lower("eval.query_p99_ms", "ms"),
	lower("eval.spill_over_mem", "x"),
	lower("eval.neighbors_ns.mem", "ns"),
	lower("eval.neighbors_ns.spill", "ns"),
	lower("eval.neighbors_ns.mmap", "ns"),
	lower("eval.open_spill_s", "s"),
	lower("eval.spill_warm_s.varint", "s"),
	lower("eval.spill_warm_s.mmap", "s"),
	higher("eval.cache_hits", "count"),
	lower("eval.cache_loads", "count"),
	higher("eval.cache_dedup_hits", "count"),
	lower("eval.cache_evictions", "count"),
	lower("eval.disk_mb_loaded", "MB"),
	lower("eval.cache_peak_mb", "MB"),
	lower("eval.mapped_mb", "MB"),
	lower("eval.tight_loads_per_shard", "x"),
	// engines: the four simulated systems.
	lower("engines.wall_s", "s"),
	lower("engines.P_s", "s"),
	lower("engines.S_s", "s"),
	lower("engines.G_s", "s"),
	lower("engines.D_s", "s"),
	lower("engines.P_fail", "count"),
	lower("engines.S_fail", "count"),
	lower("engines.G_fail", "count"),
	lower("engines.D_fail", "count"),
	// serve: the slice server, seen from its clients.
	higher("serve.req_per_s", "1/s"),
	lower("serve.req_p50_ms", "ms"),
	lower("serve.req_p99_ms", "ms"),
	lower("serve.miss_p50_ms", "ms"),
	lower("serve.hit_p50_ms", "ms"),
	higher("serve.hit_ratio", "ratio"),
	lower("serve.csr_p50_ms", "ms"),
	lower("serve.text_p50_ms", "ms"),
	lower("serve.workload_p50_ms", "ms"),
	lower("serve.emissions_per_predicate", "x"),
	lower("serve.mb_served", "MB"),
	lower("serve.cache_evictions", "count"),
	lower("serve.register_ms", "ms"),
	// proc and trace: the harness's own view of the process.
	lower("proc.alloc_mb", "MB"),
	lower("proc.mallocs_k", "k"),
	lower("proc.num_gc", "count"),
	lower("proc.cpu_s", "s"),
	lower("proc.warmup_s", "s"),
	lower("proc.raw_wall_s", "s"),
	lower("proc.yardstick_ms", "ms"),
	lower("trace.overhead_ratio", "x"),
}
