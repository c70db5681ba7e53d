package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cloudburst"
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics fills the T metrics from one traced trial: the per-core
// decomposition of each iteration's slowest site (the one the run
// waited for), the report's retrieval and sync counters, and the read
// spans. Everything is summed over the trial's iterations.
func layerMetrics(m map[string]float64, in *instance, t *trial, tr *tracer) {
	var processing, retrieval, syncT, globalRed, idle, unexplained, hidden time.Duration
	var stolen, parts, merges, maxPar int
	var remote, objectBytes int64
	var busy, tail time.Duration
	var retr cloudburst.RetrievalReport
	for _, rep := range t.reports {
		var slowest cloudburst.ClusterReport
		var slowestSum time.Duration
		cores := 0
		for _, c := range rep.Clusters {
			pc := c.Workers.DivideTimes(c.Cores)
			if sum := pc.Processing + pc.Retrieval + pc.Sync; sum >= slowestSum {
				slowest, slowestSum = c, sum
			}
			idle += c.IdleAtEnd // zero for the last site to arrive
			stolen += c.Workers.JobsStolen
			remote += c.Workers.BytesRemote
			cores += c.Cores
		}
		pc := slowest.Workers.DivideTimes(slowest.Cores)
		processing += pc.Processing
		retrieval += pc.Retrieval
		syncT += pc.Sync
		globalRed += rep.GlobalRed
		unexplained += rep.TotalWall - slowestSum - rep.GlobalRed
		hidden += rep.Retrieval.PrefetchSavedEmu / time.Duration(cores)
		retr.Add(rep.Retrieval)
		if s := rep.Sync; s != nil {
			parts, merges = parts+s.Parts, merges+s.Merges
			objectBytes += s.StreamedBytes
			busy, tail = busy+s.MergeBusyEmu, tail+s.MergeTailEmu
			maxPar = max(maxPar, s.MaxParallel)
		}
	}
	m["cluster.processing_emu_s"] = processing.Seconds()
	m["cluster.retrieval_emu_s"] = retrieval.Seconds()
	m["cluster.sync_emu_s"] = syncT.Seconds()
	m["cluster.global_reduction_emu_s"] = globalRed.Seconds()
	m["cluster.idle_at_end_emu_s"] = idle.Seconds()
	m["cluster.unexplained_emu_s"] = unexplained.Seconds()
	m["cluster.jobs_stolen"] = float64(stolen)
	m["cluster.remote_mb"] = float64(remote) / 1e6
	m["cluster.prefetch_hidden_emu_s"] = hidden.Seconds()

	m["chunk.steals_cold"] = float64(retr.StealsCold)
	m["chunk.steals_warm"] = float64(retr.StealsWarm)

	reads, failed, bytes, readBusy := tr.readTotals()
	m["store.reads"] = float64(reads)
	m["store.read_mb"] = float64(bytes) / 1e6
	m["store.read_busy_emu_s"] = readBusy.Seconds()
	if in.w.paced() {
		m["store.read_busy_emu_s"] /= in.w.scale
	}
	m["store.read_errors"] = float64(failed)
	m["store.cache_hit_ratio"] = ratio(float64(retr.CacheHits), float64(retr.CacheHits+retr.CacheMisses))
	m["store.buffer_hit_ratio"] = ratio(float64(retr.BufferHits), float64(retr.BufferHits+retr.BufferMisses))
	m["store.buffer_backing_mb"] = float64(retr.BufferBackingBytes) / 1e6
	m["store.hint_warm_ratio"] = ratio(float64(retr.HintsWarmed), float64(retr.HintsReceived))
	m["store.autotune_raises"] = float64(retr.AutotuneRaises)
	m["store.autotune_drops"] = float64(retr.AutotuneDrops)
	m["store.pool_reuse_ratio"] = ratio(float64(retr.PoolGets-retr.PoolMisses), float64(retr.PoolGets))

	m["wire.object_parts"] = float64(parts)
	m["wire.object_mb"] = float64(objectBytes) / 1e6
	m["gr.merges"] = float64(merges)
	m["gr.merge_busy_emu_s"] = busy.Seconds()
	m["gr.merge_tail_emu_s"] = tail.Seconds()
	m["gr.merge_max_parallel"] = float64(maxPar)

	m["driver.iterations"] = float64(len(t.reports))
	m["driver.iter_first_emu_s"] = t.reports[0].TotalWall.Seconds()
	m["driver.iter_warm_emu_s"] = 0
	if n := len(t.reports); n > 1 {
		m["driver.iter_warm_emu_s"] = (t.makespanS - t.reports[0].TotalWall.Seconds()) / float64(n-1)
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result sets: both values, the bound and a verdict. A pair whose
// spread within a run (see runSpread; either set) is wider than the
// bound cannot be judged: unresolved.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d", len(paths))
	}
	var sets [2]resultSet
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	timed := func(set resultSet, workload string) *runDetail {
		for _, d := range set.Runs {
			if d.Workload == workload && !d.Traced {
				return d
			}
		}
		return nil
	}
	fmt.Printf("a: %s (commit %s)\nb: %s (commit %s)\n", paths[0], sets[0].Commit, paths[1], sets[1].Commit)
	fmt.Printf("%-14s %-16s %-5s %13s %13s %8s %6s  %s\n", "workload", "metric", "unit", "a", "b", "change", "bound", "verdict")
	for _, w := range workloads {
		a, b := timed(sets[0], w.name), timed(sets[1], w.name)
		if a == nil || b == nil {
			fmt.Printf("%-14s missing from one of the sets\n", w.name)
			continue
		}
		for _, def := range endToEnd {
			va, vb := a.Metrics[def.Name], b.Metrics[def.Name]
			worse := (vb - va) / va // share of a's median by which b is worse
			if def.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "unchanged"
			switch {
			case def.Name != "setup_s" && max(runSpread(w, def, a.Trials[def.Name]), runSpread(w, def, b.Trials[def.Name])) > def.Bound:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "worse"
			case worse < -def.Bound:
				verdict = "better"
			}
			fmt.Printf("%-14s %-16s %-5s %13.6g %13.6g %+7.2f%% %5.0f%%  %s\n", w.name, def.Name, def.Unit,
				va, vb, (vb-va)/va*100, def.Bound*100, verdict)
		}
	}
	return nil
}

// runSpread is how far one run's reported value can be trusted: the
// interquartile range over the median of its trials. An unpaced run
// reports the best decile of many reps, so there the "trials" are that
// decile over each of eight consecutive batches of reps.
func runSpread(w *workload, def metricDef, v []float64) float64 {
	if !w.paced() && len(v) >= 80 {
		q := 0.1
		if def.Better == "higher" {
			q = 0.9
		}
		batches := make([]float64, 8)
		for i := range batches {
			batches[i] = quantile(v[i*len(v)/8:(i+1)*len(v)/8], q)
		}
		v = batches
	}
	if len(v) < 2 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}
