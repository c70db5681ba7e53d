package bench

import (
	"fmt"

	"cloudburst/internal/cluster"
)

// The overlap experiment ablates the slave retrieval pipeline: the
// 2x2 grid of {prefetch off/on} x {chunk cache off/on}, run once over
// a retrieval-bound single pass (knn, all data in S3) and once over a
// multi-pass algorithm (pagerank power iterations), where the cache
// additionally converts every pass after the first into warm reads.

// overlapCacheBytes comfortably holds every benchmark data set (they
// are 10,000x below the paper's sizes), so cache effectiveness is
// bounded by access patterns, not capacity.
const overlapCacheBytes = 256 << 20

// cloudOnly is the paper's retrieval-bound env-cloud (Figure 3's
// retrieval-dominated bars): all data in S3, cloud cores only.
func cloudOnly(spec AppSpec, sim SimParams, logf func(string, ...any)) RunConfig {
	return RunConfig{
		Spec: spec, CloudCores: spec.withDefaults().CloudCores(32), Sim: sim,
		Deploy: cluster.DeployConfig{Logf: logf},
	}
}

// Overlap runs the grid in env-cloud, the no-overlap baseline first:
// one pass when iters is 0 (the cache sees each chunk once and only
// records misses), else iters pagerank power iterations over one
// persistent cache per site.
func Overlap(spec AppSpec, sim SimParams, iters int, logf func(string, ...any)) (*Table, error) {
	prefetch := func(c *RunConfig) { c.Deploy.Prefetch = true }
	cache := func(c *RunConfig) { c.Deploy.CacheBytes = overlapCacheBytes }
	return Sweep(cloudOnly(spec, sim, logf), iters, []Variant{
		{Label: "baseline"},
		{Label: "prefetch", Set: prefetch},
		{Label: "cache", Set: cache},
		{Label: "prefetch+cache", Set: func(c *RunConfig) { prefetch(c); cache(c) }},
	})
}

// OverlapColumns are the overlap table's metrics: each variant's
// speedup over the baseline, the work prefetch hid, and cache and
// buffer-pool effectiveness.
var OverlapColumns = []Column{
	totalCol, speedupCol,
	col("prefetched", "%d", func(r *Row) any { return r.Retrieval.PrefetchedJobs }),
	col("hidden(s)", "%.1f", func(r *Row) any { return r.Retrieval.PrefetchSavedEmu.Seconds() }),
	col("hits", "%d", func(r *Row) any { return r.Retrieval.CacheHits }),
	col("misses", "%d", func(r *Row) any { return r.Retrieval.CacheMisses }),
	col("savedMB", "%.1f", func(r *Row) any { return mb(r.Retrieval.CacheBytesSaved) }),
	col("poolReuse", "%s", func(r *Row) any {
		if r.Retrieval.PoolGets == 0 {
			return "—"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(r.Retrieval.PoolGets-r.Retrieval.PoolMisses)/float64(r.Retrieval.PoolGets))
	}),
}
