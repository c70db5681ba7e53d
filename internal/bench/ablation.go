package bench

import (
	"fmt"
	"strings"
)

// Ablations quantify the design choices the paper describes but does
// not isolate experimentally: the consecutive-job assignment
// optimization, multi-threaded retrieval, the master's batch size, and
// the reduction-object size's effect on synchronization cost.

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label  string
	Result EnvResult
}

// AblationConsecutive compares the head's consecutive-job grouping
// against scattered assignment on an env-local run, where the storage
// node's seek model makes sequential access pay off (Section III-B:
// "the selection of consecutive jobs is an important optimization").
func AblationConsecutive(spec AppSpec, sim SimParams, logf func(string, ...any)) ([]AblationRow, error) {
	var rows []AblationRow
	for _, scatter := range []bool{false, true} {
		res, err := Execute(RunConfig{
			Spec: spec, LocalPct: 100, LocalCores: 32,
			Sim: sim, Scatter: scatter, Logf: logf,
		})
		if err != nil {
			return nil, err
		}
		label := "consecutive"
		if scatter {
			label = "scattered"
		}
		rows = append(rows, AblationRow{Label: label, Result: *res})
	}
	return rows, nil
}

// AblationFetchThreads sweeps the retrieval thread count on an
// env-cloud run (all data in the object store), quantifying the
// multi-threaded retrieval design ("to capitalize on the fast network
// interconnects").
func AblationFetchThreads(spec AppSpec, sim SimParams, threads []int, logf func(string, ...any)) ([]AblationRow, error) {
	var rows []AblationRow
	for _, th := range threads {
		s := sim
		s.FetchThreads = th
		res, err := Execute(RunConfig{
			Spec: spec, LocalPct: 0, CloudCores: 32,
			Sim: s, Logf: logf,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Label: fmt.Sprintf("threads=%d", th), Result: *res})
	}
	return rows, nil
}

// AblationBatch sweeps the master's refill batch size on a balanced
// hybrid run, quantifying the pooling-based load balancing granularity
// (too-large batches hurt balance; too-small ones pay head round
// trips).
func AblationBatch(spec AppSpec, sim SimParams, batches []int, logf func(string, ...any)) ([]AblationRow, error) {
	var rows []AblationRow
	for _, b := range batches {
		res, err := Execute(RunConfig{
			Spec: spec, LocalPct: 50, LocalCores: 16, CloudCores: spec.withDefaults().CloudCores(16),
			Sim: sim, Batch: b, Logf: logf,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Label: fmt.Sprintf("batch=%d", b), Result: *res})
	}
	return rows, nil
}

// AblationObjectSize sweeps the PageRank graph size (and with it the
// rank-vector reduction object) at fixed input bytes per page,
// reproducing the paper's conclusion that a growing reduction object
// eventually makes cloud bursting unattractive.
func AblationObjectSize(sim SimParams, pages []int64, logf func(string, ...any)) ([]AblationRow, error) {
	var rows []AblationRow
	for _, p := range pages {
		spec := PageRankSpec()
		spec.Params["pages"] = fmt.Sprint(p)
		res, err := Execute(RunConfig{
			Spec: spec, LocalPct: 50, LocalCores: 16, CloudCores: 16,
			Sim: sim, SyncMode: paperSync, Logf: logf,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Label: fmt.Sprintf("pages=%d (object %d KB)", p, p*8>>10), Result: *res})
	}
	return rows, nil
}

// AblationPooling demonstrates the paper's claim that pooling-based
// dynamic load balancing "normalizes unpredictable performance
// changes" of virtualized cloud cores: under heavy per-core speed
// jitter, on-demand (one job at a time) assignment is compared with
// static partitioning (each core grabs its 1/N share up front).
func AblationPooling(spec AppSpec, sim SimParams, jitter float64, logf func(string, ...any)) ([]AblationRow, error) {
	spec = spec.withDefaults()
	cores := 16
	base := RunConfig{
		Spec: spec, LocalPct: 50,
		LocalCores: cores, CloudCores: spec.CloudCores(cores),
		Sim: sim, CloudJitter: jitter, Logf: logf,
	}
	var rows []AblationRow
	for _, static := range []bool{false, true} {
		cfg := base
		label := "dynamic pooling"
		if static {
			// Each worker takes its whole static share in one request.
			perCore := spec.Jobs / (cfg.LocalCores + cfg.CloudCores)
			if perCore < 1 {
				perCore = 1
			}
			cfg.JobsPerRequest = perCore
			cfg.Batch = spec.Jobs
			label = "static partition"
		}
		res, err := Execute(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Label: label, Result: *res})
	}
	return rows, nil
}

// RenderAblation prints an ablation sweep.
func RenderAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — %s (emulated seconds)\n", title)
	fmt.Fprintf(&b, "%-26s %12s %12s %12s %12s\n", "config", "total", "retrieval", "sync", "globalRed")
	for _, r := range rows {
		var retr, sync float64
		for _, c := range r.Result.Report.Clusters {
			s := perCore(&c)
			retr += s.Retrieval.Seconds()
			sync += (s.Sync + c.IdleAtEnd).Seconds()
		}
		n := float64(len(r.Result.Report.Clusters))
		fmt.Fprintf(&b, "%-26s %12.1f %12.1f %12.1f %12.3f\n",
			r.Label, r.Result.Report.TotalWall.Seconds(), retr/n, sync/n,
			r.Result.Report.GlobalRed.Seconds())
	}
	return b.String()
}
