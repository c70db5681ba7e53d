package main

import (
	"math"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json repeats these lists;
// smoke_test.go fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a change may lose
}

// End-to-end metrics, reported by every workload with tracing off.
// Failed runs are not a metric here: the driver's contract carries
// them as the `failed` / `attempted` counts of every result line, and
// any failed run makes the command exit non-zero.
var endToEnd = []metricDef{
	{"makespan_emu_s", "s", "lower", 0.08},
	{"cloud_cost_usd", "USD", "lower", 0.08},
	{"throughput_mb_s", "MB/s", "higher", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, reported by every traced run. T metrics come from
// the traced trial and its RunReport, M metrics from layers.go.
var perLayer = []metricDef{
	{"cluster.processing_emu_s", "s", "lower", 0},
	{"cluster.retrieval_emu_s", "s", "lower", 0},
	{"cluster.sync_emu_s", "s", "lower", 0},
	{"cluster.global_reduction_emu_s", "s", "lower", 0},
	{"cluster.idle_at_end_emu_s", "s", "lower", 0},
	{"cluster.unexplained_emu_s", "s", "lower", 0},
	{"cluster.jobs_stolen", "count", "lower", 0},
	{"cluster.remote_mb", "MB", "lower", 0},
	{"cluster.prefetch_hidden_emu_s", "s", "higher", 0},
	{"cluster.run_ms_p90", "ms", "lower", 0},
	{"cluster.per_job_overhead_us", "us", "lower", 0},
	{"chunk.steals_cold", "count", "lower", 0},
	{"chunk.steals_warm", "count", "lower", 0},
	{"chunk.pool_cycle_ns_960", "ns", "lower", 0},
	{"chunk.pool_cycle_ns_100k", "ns", "lower", 0},
	{"chunk.index_build_ms", "ms", "lower", 0},
	{"store.reads", "count", "lower", 0},
	{"store.read_mb", "MB", "lower", 0},
	{"store.read_busy_emu_s", "s", "lower", 0},
	{"store.read_errors", "count", "lower", 0},
	{"store.cache_hit_ratio", "ratio", "higher", 0},
	{"store.buffer_hit_ratio", "ratio", "higher", 0},
	{"store.buffer_backing_mb", "MB", "lower", 0},
	{"store.hint_warm_ratio", "ratio", "higher", 0},
	{"store.autotune_raises", "count", "lower", 0},
	{"store.autotune_drops", "count", "lower", 0},
	{"store.pool_reuse_ratio", "ratio", "higher", 0},
	{"store.fetch_mem_mb_s", "MB/s", "higher", 0},
	{"store.fetch_tcp_mb_s", "MB/s", "higher", 0},
	{"store.fetch_allocs", "count", "lower", 0},
	{"store.cache_hit_ns", "ns", "lower", 0},
	{"store.cache_miss_ns", "ns", "lower", 0},
	{"store.sitebuffer_hit_ns", "ns", "lower", 0},
	{"store.sitebuffer_miss_ns", "ns", "lower", 0},
	{"wire.jobgrant_ns", "ns", "lower", 0},
	{"wire.jobgrant_allocs", "count", "lower", 0},
	{"wire.readresp_mb_s", "MB/s", "higher", 0},
	{"wire.readresp_allocs", "count", "lower", 0},
	{"wire.objectstream_mb_s", "MB/s", "higher", 0},
	{"wire.object_parts", "count", "lower", 0},
	{"wire.object_mb", "MB", "lower", 0},
	{"gr.engine_knn_ns_unit", "ns", "lower", 0},
	{"gr.engine_kmeans_ns_unit", "ns", "lower", 0},
	{"gr.engine_pagerank_ns_unit", "ns", "lower", 0},
	{"gr.merge_pagerank_ns_byte", "ns", "lower", 0},
	{"gr.codec_pagerank_mb_s", "MB/s", "higher", 0},
	{"gr.merges", "count", "lower", 0},
	{"gr.merge_busy_emu_s", "s", "lower", 0},
	{"gr.merge_tail_emu_s", "s", "lower", 0},
	{"gr.merge_max_parallel", "count", "higher", 0},
	{"driver.iterations", "count", "lower", 0},
	{"driver.iter_first_emu_s", "s", "lower", 0},
	{"driver.iter_warm_emu_s", "s", "lower", 0},
	{"netsim.host_cpu_s", "s", "lower", 0},
	{"netsim.host_cpu_per_wall", "ratio", "lower", 0},
	{"netsim.sleep_overshoot_us", "us", "lower", 0},
	{"netsim.bucket_take_ns", "ns", "lower", 0},
	{"workload.gen_mb_s", "MB/s", "higher", 0},
	{"bench.trial_spread_pct", "%", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.peak_rss_mb", "MB", "lower", 0},
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics; it returns
// NaN for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return
}
