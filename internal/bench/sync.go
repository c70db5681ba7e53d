package bench

import (
	"strconv"
	"time"

	"cloudburst/internal/cluster"
)

// The sync experiment measures the global-reduction synchronization
// strategies over the paper's worst case for them: pagerank in
// env-cloud, where every core ships a full ~600 KB rank vector to the
// master and the merged vector crosses the 15 KB/s head WAN. Two
// variants run the identical workload: the monolithic baseline
// (single-frame objects, serial merge after the all-arrivals barrier)
// and the streamed default (bounded part frames, a parallel merge tree
// overlapped with transfers). Sync is a transport/scheduling change,
// never a semantics change, so both variants must produce the same
// result digest; the win is measured wall clock plus the overlap the
// per-arrival merge bought.

// syncMergeCostPerByte restores the paper-scale merge CPU the byte
// scale-down erased: folding the paper's ~300 MB rank vector at real
// memory bandwidth costs ~0.6 s per pair merge, and our ~600 KB
// stand-in object is 10,000x smaller, so each folded byte is charged
// 1 µs of emulated time (0.6 s / 600 KB). Every variant pays it —
// what differs is whether the folds hide behind transfers and run
// concurrently (streamed) or queue after the barrier (monolithic).
const syncMergeCostPerByte = time.Microsecond

// syncSpec turns the calibrated pagerank workload into its large-rank-
// vector variant: 4x the pages at a quarter the degree, so the edge
// data (and thus the map phase) stays at the calibrated size while the
// reduction object the sync phase must move and merge quadruples.
func syncSpec(spec AppSpec) AppSpec {
	out := spec
	out.Params = make(map[string]string, len(spec.Params))
	for k, v := range spec.Params {
		out.Params[k] = v
	}
	for key, mul := range map[string]bool{"pages": true, "mindeg": false, "maxdeg": false} {
		n, err := strconv.ParseInt(out.Params[key], 10, 64)
		if err != nil {
			continue
		}
		if mul {
			n *= 4
		} else {
			n /= 4
		}
		if n < 1 {
			n = 1
		}
		out.Params[key] = strconv.FormatInt(n, 10)
	}
	return out
}

// SyncPageRank runs the ablation, the monolithic baseline first: one
// pass of the large-rank-vector pagerank per variant in env-cloud,
// where the reduction-object transfers and merges dominate.
func SyncPageRank(spec AppSpec, sim SimParams, logf func(string, ...any)) (*Table, error) {
	base := cloudOnly(syncSpec(spec.withDefaults()), sim, logf)
	base.Deploy.MergeCost = syncMergeCostPerByte
	mode := func(m string) func(*RunConfig) {
		return func(c *RunConfig) { c.Deploy.SyncMode = m }
	}
	return Sweep(base, 0, []Variant{
		{Label: "monolithic-serial", Set: mode(cluster.SyncMonolithic)},
		{Label: "streamed-parallel", Set: mode(cluster.SyncStreamedParallel)},
	})
}

// SyncColumns are the sync table's metrics: speedup over monolithic,
// the global-reduction phase, and the merge-overlap accounting.
var SyncColumns = []Column{
	totalCol, speedupCol,
	col("globred", "%.1f", func(r *Row) any { return r.GlobalRedEmu.Seconds() }),
	col("parts", "%d", func(r *Row) any { return r.Sync.Parts }),
	col("streamMB", "%.2f", func(r *Row) any { return mb(r.Sync.StreamedBytes) }),
	col("estMB", "%.2f", func(r *Row) any { return mb(r.Sync.EstBytes) }),
	col("merges", "%d", func(r *Row) any { return r.Sync.Merges }),
	col("busy", "%.1f", func(r *Row) any { return r.Sync.MergeBusyEmu.Seconds() }),
	col("saved", "%.1f", func(r *Row) any { return r.Sync.OverlapSavedEmu.Seconds() }),
	col("maxpar", "%d", func(r *Row) any { return r.Sync.MaxParallel }),
}
