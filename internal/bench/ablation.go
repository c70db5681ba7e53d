package bench

import (
	"fmt"

	"cloudburst/internal/cluster"
)

// Ablations quantify the design choices the paper describes but does
// not isolate experimentally: the consecutive-job assignment
// optimization, multi-threaded retrieval, the master's batch size, the
// reduction-object size's effect on synchronization cost, and pooling
// under core-speed jitter.

// AblationConsecutive compares the head's consecutive-job grouping
// against scattered assignment on an env-local run, where the storage
// node's seek model makes sequential access pay off (Section III-B:
// "the selection of consecutive jobs is an important optimization").
func AblationConsecutive(spec AppSpec, sim SimParams, logf func(string, ...any)) (*Table, error) {
	return Sweep(RunConfig{
		Spec: spec, LocalPct: 100, LocalCores: 32, Sim: sim,
		Deploy: cluster.DeployConfig{Logf: logf},
	}, 0, []Variant{
		{Label: "consecutive"},
		{Label: "scattered", Set: func(c *RunConfig) { c.Deploy.Scatter = true }},
	})
}

// AblationFetchThreads sweeps the retrieval thread count on an
// env-cloud run (all data in the object store), quantifying the
// multi-threaded retrieval design ("to capitalize on the fast network
// interconnects").
func AblationFetchThreads(spec AppSpec, sim SimParams, threads []int, logf func(string, ...any)) (*Table, error) {
	var variants []Variant
	for _, th := range threads {
		variants = append(variants, Variant{
			Label: fmt.Sprintf("threads=%d", th),
			Set:   func(c *RunConfig) { c.Sim.FetchThreads = th },
		})
	}
	return Sweep(RunConfig{
		Spec: spec, CloudCores: 32, Sim: sim,
		Deploy: cluster.DeployConfig{Logf: logf},
	}, 0, variants)
}

// AblationBatch sweeps the master's refill batch size on a balanced
// hybrid run, quantifying the pooling-based load balancing granularity
// (too-large batches hurt balance; too-small ones pay head round
// trips).
func AblationBatch(spec AppSpec, sim SimParams, batches []int, logf func(string, ...any)) (*Table, error) {
	var variants []Variant
	for _, b := range batches {
		variants = append(variants, Variant{
			Label: fmt.Sprintf("batch=%d", b),
			Set:   func(c *RunConfig) { c.Deploy.Batch = b },
		})
	}
	return Sweep(RunConfig{
		Spec: spec, LocalPct: 50, LocalCores: 16, CloudCores: spec.withDefaults().CloudCores(16),
		Sim: sim, Deploy: cluster.DeployConfig{Logf: logf},
	}, 0, variants)
}

// AblationObjectSize sweeps the PageRank graph size (and with it the
// rank-vector reduction object) at fixed input bytes per page,
// reproducing the paper's conclusion that a growing reduction object
// eventually makes cloud bursting unattractive. Its variants compute
// different graphs, so their digests differ by design.
func AblationObjectSize(sim SimParams, pages []int64, logf func(string, ...any)) (*Table, error) {
	var variants []Variant
	for _, p := range pages {
		variants = append(variants, Variant{
			Label: fmt.Sprintf("pages=%d (object %d KB)", p, p*8>>10),
			Set: func(c *RunConfig) {
				c.Spec = PageRankSpec()
				c.Spec.Params["pages"] = fmt.Sprint(p)
			},
		})
	}
	return Sweep(RunConfig{
		Spec: PageRankSpec(), LocalPct: 50, LocalCores: 16, CloudCores: 16,
		Sim: sim, Deploy: cluster.DeployConfig{SyncMode: paperSync, Logf: logf},
	}, 0, variants)
}

// AblationPooling demonstrates the paper's claim that pooling-based
// dynamic load balancing "normalizes unpredictable performance
// changes" of virtualized cloud cores: under heavy per-core speed
// jitter, on-demand (one job at a time) assignment is compared with
// static partitioning (each core grabs its 1/N share up front).
func AblationPooling(spec AppSpec, sim SimParams, jitter float64, logf func(string, ...any)) (*Table, error) {
	spec = spec.withDefaults()
	base := RunConfig{
		Spec: spec, LocalPct: 50, LocalCores: 16, CloudCores: spec.CloudCores(16),
		Sim: sim, CloudJitter: jitter, Deploy: cluster.DeployConfig{Logf: logf},
	}
	return Sweep(base, 0, []Variant{
		{Label: "dynamic pooling"},
		{Label: "static partition", Set: func(c *RunConfig) {
			// Each worker takes its whole static share in one request.
			c.Deploy.JobsPerRequest = max(spec.Jobs/(c.LocalCores+c.CloudCores), 1)
			c.Deploy.Batch = spec.Jobs
		}},
	})
}

// AblationColumns are the ablation tables' metrics: wall time and the
// per-core retrieval and sync components averaged over the clusters
// (sync includes end-of-run idle, as in Figure 3), plus the head's
// global reduction.
var AblationColumns = []Column{
	totalCol,
	col("retrieval", "%.1f", func(r *Row) any { retr, _ := perCoreMeans(r); return retr }),
	col("sync", "%.1f", func(r *Row) any { _, sync := perCoreMeans(r); return sync }),
	col("globalRed", "%.3f", func(r *Row) any { return r.GlobalRedEmu.Seconds() }),
}

// perCoreMeans averages the per-core retrieval and sync (with
// end-of-run idle) seconds over the row's clusters.
func perCoreMeans(r *Row) (retrieval, sync float64) {
	for _, c := range r.Report.Clusters {
		s := perCore(&c)
		retrieval += s.Retrieval.Seconds()
		sync += (s.Sync + c.IdleAtEnd).Seconds()
	}
	n := float64(len(r.Report.Clusters))
	return retrieval / n, sync / n
}
