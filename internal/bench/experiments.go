package bench

import (
	"fmt"
	"time"

	"cloudburst/internal/apps"
	"cloudburst/internal/cluster"
	"cloudburst/internal/gr"
	"cloudburst/internal/mapreduce"
	"cloudburst/internal/netsim"
)

// paperSync pins the paper's own figures and tables to the sync mode
// the paper's runtime had — wait for every cluster, merge, broadcast
// the final to all — so Table II's global-reduction column keeps
// measuring what the paper measured (pagerank's ~600 KB object
// crossing the WAN twice). The streamed plan's exchange hides half of
// that; cbbench -experiment sync is where the two are compared.
const paperSync = cluster.SyncMonolithic

// Fig3 runs the paper's five environment configurations for one
// application (Figure 3; Tables I and II derive from the same runs):
//
//	env-local  (32, 0)  100% data local
//	env-cloud  (0, 32*) 100% data in S3
//	env-50/50  (16,16*)  50% local
//	env-33/67  (16,16*)  33% local
//	env-17/83  (16,16*)  17% local
//
// (* kmeans uses the app's CloudCores mapping: 32->44, 16->22.)
func Fig3(spec AppSpec, sim SimParams, logf func(string, ...any)) ([]EnvResult, error) {
	spec = spec.withDefaults()
	base := 32
	half := base / 2
	runs := []RunConfig{
		{Spec: spec, LocalPct: 100, LocalCores: base, CloudCores: 0, Sim: sim, Logf: logf},
		{Spec: spec, LocalPct: 0, LocalCores: 0, CloudCores: spec.CloudCores(base), Sim: sim, Logf: logf},
		{Spec: spec, LocalPct: 50, LocalCores: half, CloudCores: spec.CloudCores(half), Sim: sim, Logf: logf},
		{Spec: spec, LocalPct: 33, LocalCores: half, CloudCores: spec.CloudCores(half), Sim: sim, Logf: logf},
		{Spec: spec, LocalPct: 17, LocalCores: half, CloudCores: spec.CloudCores(half), Sim: sim, Logf: logf},
	}
	var out []EnvResult
	for _, rc := range runs {
		rc.SyncMode = paperSync
		res, err := Execute(rc)
		if err != nil {
			return nil, fmt.Errorf("bench: %s %s: %w", spec.Name, envName(rc), err)
		}
		out = append(out, *res)
	}
	return out, nil
}

// Fig4 runs the scalability sweep (Figure 4): every file in S3, equal
// core counts (m, m*) for m in 4, 8, 16, 32.
func Fig4(spec AppSpec, sim SimParams, logf func(string, ...any)) ([]EnvResult, error) {
	spec = spec.withDefaults()
	var out []EnvResult
	for _, m := range []int{4, 8, 16, 32} {
		res, err := Execute(RunConfig{
			Spec: spec, LocalPct: 0,
			LocalCores: m, CloudCores: spec.CloudCores(m),
			Sim: sim, SyncMode: paperSync, Logf: logf,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s (%d,%d): %w", spec.Name, m, spec.CloudCores(m), err)
		}
		res.Env = fmt.Sprintf("(%d,%d)", m, spec.CloudCores(m))
		res.Report.Env = res.Env
		out = append(out, *res)
	}
	return out, nil
}

// Speedups returns, for a Fig4 sweep, the percentage speedup achieved
// by each core doubling: (T_prev / T_curr - 1) * 100 (the paper's
// Figure 4 annotations; 100% would be perfect scaling).
func Speedups(results []EnvResult) []float64 {
	var out []float64
	for i := 1; i < len(results); i++ {
		prev := results[i-1].Report.TotalWall.Seconds()
		curr := results[i].Report.TotalWall.Seconds()
		if curr <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, (prev/curr-1)*100)
	}
	return out
}

// SlowdownVsLocal derives the paper's Table II "total slowdown": the
// hybrid run's execution time minus env-local's, in emulated seconds.
func SlowdownVsLocal(results []EnvResult) map[string]time.Duration {
	var local time.Duration
	for _, r := range results {
		if r.Env == "env-local" {
			local = r.Report.TotalWall
		}
	}
	out := make(map[string]time.Duration)
	for _, r := range results {
		if r.Env == "env-local" || r.Env == "env-cloud" {
			continue
		}
		out[r.Env] = r.Report.TotalWall - local
	}
	return out
}

// MeanHybridSlowdownPct computes the paper's headline number (Section
// IV-B: "the average slowdown ratio ... is only 15.55%") across a set
// of Fig3 sweeps: mean of (hybrid - local)/local over the three hybrid
// configurations of every application.
func MeanHybridSlowdownPct(all [][]EnvResult) float64 {
	var sum float64
	var n int
	for _, results := range all {
		var local float64
		for _, r := range results {
			if r.Env == "env-local" {
				local = r.Report.TotalWall.Seconds()
			}
		}
		if local <= 0 {
			continue
		}
		for _, r := range results {
			if r.Env == "env-local" || r.Env == "env-cloud" {
				continue
			}
			sum += (r.Report.TotalWall.Seconds() - local) / local * 100
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanSpeedupPct averages per-doubling speedups across Fig4 sweeps
// (the paper's "average speedup of 81% every time Y is doubled").
func MeanSpeedupPct(all [][]EnvResult) float64 {
	var sum float64
	var n int
	for _, results := range all {
		for _, s := range Speedups(results) {
			sum += s
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Fig1Row is one engine's outcome in the API-comparison ablation.
type Fig1Row struct {
	Engine        string
	WallSeconds   float64
	PeakPairs     int64 // peak buffered intermediate pairs (MR) / 0 (GR)
	ShuffledPairs int64 // pairs crossing the shuffle (MR) / 0 (GR)
	StateBytes    int   // reduction-object size (GR) / est. pair bytes (MR)
	ResultDigest  string
}

// Fig1 reproduces the Section III-A comparison quantitatively: the
// same workload through generalized reduction, Map-Reduce, and
// Map-Reduce with a combiner, reporting runtime and intermediate
// state. It uses wordcount (the canonical combiner subject) at a size
// where the differences are visible but fast.
func Fig1(records int64, workers int) ([]Fig1Row, error) {
	spec := WordCountSpec()
	spec.Records = records
	spec.Files = workers
	d, err := CachedDataset(spec)
	if err != nil {
		return nil, err
	}
	app, err := gr.New(spec.Name, spec.Params)
	if err != nil {
		return nil, err
	}
	wc := app.(*apps.WordCount)

	var rows []Fig1Row

	// Generalized reduction: one engine per worker, merge at the end.
	start := time.Now()
	reds := make([]gr.Reduction, workers)
	errs := make([]error, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			red := app.NewReduction()
			e := gr.NewEngine(app, gr.EngineOptions{Clock: netsim.Instant()})
			for f := w; f < len(d.Files); f += workers {
				if _, err := e.ProcessChunk(red, d.Files[f]); err != nil {
					errs[w] = err
					break
				}
			}
			reds[w] = red
			done <- w
		}(w)
	}
	for range reds {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	final, err := gr.MergeAll(app, reds)
	if err != nil {
		return nil, err
	}
	grWall := time.Since(start).Seconds()
	digest, _ := wc.Summarize(final)
	stateBytes := 0
	for _, r := range reds {
		stateBytes += r.Bytes()
	}
	rows = append(rows, Fig1Row{
		Engine: "generalized-reduction", WallSeconds: grWall,
		StateBytes: stateBytes, ResultDigest: digest,
	})

	// Map-Reduce without and with the combiner.
	for _, combine := range []bool{false, true} {
		cfg := mapreduce.WordCountJob(wc.Width, combine)
		cfg.Workers = workers
		start := time.Now()
		res, err := mapreduce.Run(cfg, d.Files)
		if err != nil {
			return nil, err
		}
		name := "map-reduce"
		if combine {
			name = "map-reduce+combine"
		}
		var total int64
		for _, v := range res.Values {
			total += int64(v[0])
		}
		rows = append(rows, Fig1Row{
			Engine: name, WallSeconds: time.Since(start).Seconds(),
			PeakPairs: res.Stats.PeakBuffered, ShuffledPairs: res.Stats.PairsShuffled,
			StateBytes:   int(res.Stats.ApproxBufferedBytes),
			ResultDigest: fmt.Sprintf("wordcount: %d words, %d distinct", total, len(res.Values)),
		})
	}
	return rows, nil
}
