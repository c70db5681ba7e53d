package bench

import "fmt"

// The buffer experiment measures the site-shared burst-buffer tier:
// a per-site chunk cache service between S3 and the slaves. Three
// variants run over the paper's retrieval-bound env-cloud setting: no
// buffer, a cold buffer the slaves read through on demand, and a
// staged buffer the master also fills ahead of demand from its
// queue-front prefetch hints. Over one pass every chunk is read
// exactly once, so the cold buffer can only add a hop while staging
// overlaps S3 fetches with compute; over pagerank power iterations
// iteration N+1 replays iteration N's chunks out of site-local
// residency instead of re-paying S3 — the tier's headline case.

// bufferCapBytes comfortably holds every benchmark data set (they are
// 10,000x below the paper's sizes), so buffer effectiveness is bounded
// by access patterns and staging, not capacity.
const bufferCapBytes = 256 << 20

// bufferHintDepth is the master hint depth driving staged variants.
const bufferHintDepth = 4

// Buffer runs the ablation in env-cloud, the bufferless baseline
// first: one pass when iters is 0, else iters pagerank power
// iterations over one persistent buffer per HomeFetch site.
func Buffer(spec AppSpec, sim SimParams, iters int, logf func(string, ...any)) (*Table, error) {
	buffer := func(c *RunConfig) { c.Deploy.BufferBytes = bufferCapBytes }
	return Sweep(cloudOnly(spec, sim, logf), iters, []Variant{
		{Label: "no-buffer"},
		{Label: "cold-buffer", Set: buffer},
		{Label: "staged-buffer", Set: func(c *RunConfig) { buffer(c); c.Deploy.HintDepth = bufferHintDepth }},
	})
}

// BufferColumns are the buffer table's metrics: speedup and S3 egress
// against the bufferless baseline, and the tier's own traffic.
var BufferColumns = []Column{
	totalCol, speedupCol,
	col("hits", "%d", func(r *Row) any { return r.Retrieval.BufferHits }),
	col("misses", "%d", func(r *Row) any { return r.Retrieval.BufferMisses }),
	col("stagedMB", "%.1f", func(r *Row) any { return mb(r.Retrieval.StagedBytes) }),
	col("servedMB", "%.1f", func(r *Row) any { return mb(r.Retrieval.BufferBytes) }),
	col("egressMB", "%.1f", func(r *Row) any { return mb(r.EgressBytes) }),
	{Head: "egress", Cell: func(t *Table, r *Row) string {
		if base := t.Rows[0].EgressBytes; base > 0 {
			return fmt.Sprintf("%.0f%%", 100*float64(r.EgressBytes)/float64(base))
		}
		return "—"
	}},
}
