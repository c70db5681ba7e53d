package bench

// The autotune experiment compares static retrieval thread counts
// against the AIMD fetch autotuner on the paper's retrieval-bound
// environments. The static rows bracket the tuning burden the paper's
// fixed per-slave thread count carries: static-2 undersaturates the
// S3 links badly, static-8 sits near the calibrated sweet spot. The
// autotune row *starts* at the mis-tuned 2 threads and must find the
// knee on its own. Results must be digest-identical across variants —
// the controller reorders and resizes range requests but never changes
// what is computed.

// autotuneFetchRange shrinks the sub-range size for this experiment
// (and autotuneJobsDiv grows the chunks) so every chunk splits into
// enough sub-ranges that the thread axis stays meaningful at shrunk
// benchmark scales: a divisor-10 chunk is only a few KiB, and at the
// default 2 KiB range every fetch would cap at 2 readers regardless
// of the configured thread count. With ~14 sub-ranges per chunk the
// controller also has room to climb past the static-8 row toward the
// link's real saturation knee.
const (
	autotuneFetchRange = 512
	autotuneJobsDiv    = 2
)

// autotuneHintDepth is the master hint depth used in the split-
// deployment cell, where the full pipeline (prefetch, cache, hints,
// residency-steered stealing) runs alongside the controller.
const autotuneHintDepth = 4

// AutotuneGrid runs the static-2 / static-8 / autotune rows over the
// two retrieval-heavy environments, one table each. env-cloud (all
// data in S3, cloud cores only — Figure 3's retrieval-dominated bars)
// runs the bare retrieval path, no prefetch or hints, so the thread
// count is the only concurrency lever and the controller's win is
// attributable: with overlap machinery on, every core already holds
// several fetches in flight and the link's aggregate cap binds at any
// thread count. The split deployment runs the full adaptive pipeline —
// prefetch, chunk cache, master hints, residency-steered stealing — so
// the hint and steal counters are exercised alongside the controller.
func AutotuneGrid(spec AppSpec, sim SimParams, logf func(string, ...any)) ([]*Table, error) {
	spec = spec.withDefaults()
	sim.FetchRange = autotuneFetchRange
	if d := spec.Jobs / autotuneJobsDiv; d >= spec.Files {
		spec.Jobs = d
	}
	cloud := cloudOnly(spec, sim, logf)
	cloud.Deploy.CacheBytes = overlapCacheBytes
	split := cloud
	split.LocalPct, split.LocalCores, split.CloudCores = 50, 16, spec.CloudCores(16)
	split.Deploy.Prefetch, split.Deploy.HintDepth = true, autotuneHintDepth
	threads := func(n int, tune bool) func(*RunConfig) {
		return func(c *RunConfig) { c.Sim.FetchThreads, c.Deploy.FetchAutotune = n, tune }
	}
	var out []*Table
	for _, base := range []RunConfig{cloud, split} {
		t, err := Sweep(base, 0, []Variant{
			{Label: "static-2", Set: threads(2, false)},
			{Label: "static-8", Set: threads(8, false)},
			{Label: "autotune", Set: threads(2, true)},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// AutotuneColumns are the autotune table's metrics: speedup over the
// mis-tuned static-2 row, the controller's decisions, and the hint and
// steal outcomes.
var AutotuneColumns = []Column{
	totalCol, speedupCol,
	col("raises", "%d", func(r *Row) any { return r.Retrieval.AutotuneRaises }),
	col("drops", "%d", func(r *Row) any { return r.Retrieval.AutotuneDrops }),
	col("warmed", "%d", func(r *Row) any { return r.Retrieval.HintsWarmed }),
	col("denied", "%d", func(r *Row) any { return r.Retrieval.HintsDenied }),
	col("cold", "%d", func(r *Row) any { return r.Retrieval.StealsCold }),
	col("warm", "%d", func(r *Row) any { return r.Retrieval.StealsWarm }),
}
