// Command cbbench regenerates the paper's evaluation: Figure 3 (the
// five cloud-bursting configurations), Tables I and II (job assignment
// and slowdowns), Figure 4 (scalability), and the Figure 1 API
// ablation.
//
// Usage:
//
//	cbbench -experiment all
//	cbbench -experiment fig3a            # knn panel only
//	cbbench -experiment fig4b -scale 0.001
//	cbbench -experiment table2 -records-divisor 10
//	cbbench -experiment overlap -records-divisor 10 -json BENCH_overlap.json
//
// The -records-divisor flag shrinks every data set (and job count) by
// the given factor for quick runs; shapes are preserved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cloudburst/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"one of: all, fig1, fig3a, fig3b, fig3c, fig3, table1, table2, fig4a, fig4b, fig4c, fig4, summary, ablation, cost, chaos, overlap, autotune, elastic, advisor, spot, buffer, sync")
		scale   = flag.Float64("scale", 0, "clock scale override (wall s per emulated s)")
		divisor = flag.Int64("records-divisor", 1, "shrink data sets (and jobs) by this factor")
		verbose = flag.Bool("v", false, "log cluster progress")

		overlapIters = flag.Int("overlap-iters", 3, "overlap/buffer: pagerank power iterations (at least 1)")
		jsonPath     = flag.String("json", "", "overlap/autotune/elastic/advisor/spot/buffer/sync/chaos: also write the result tables as JSON to this file")
		checkWin     = flag.Bool("check-win", false, "autotune/elastic/advisor/spot/buffer/sync: fail unless the acceptance criteria are met")
		historyDir   = flag.String("history-dir", "", "advisor: burst-history database directory (empty = throwaway temp dir)")

		faultSeed      = flag.Int64("fault-seed", 42, "chaos: fault plan seed")
		faultTransient = flag.Float64("fault-transient", 0.02, "chaos: per-request transient fault probability")
		faultSlowdown  = flag.Float64("fault-slowdown", 0.02, "chaos: per-request SlowDown throttle probability")
		heartbeat      = flag.Duration("heartbeat", 50*time.Millisecond, "chaos: liveness heartbeat interval (0 disables)")
	)
	flag.Parse()
	if *overlapIters < 1 {
		// 0 would silently run the pagerank rows as one pass, which the
		// knn rows already cover.
		fmt.Fprintln(os.Stderr, "cbbench: -overlap-iters must be at least 1")
		flag.Usage()
		os.Exit(2)
	}

	sim := bench.DefaultSim()
	if *scale > 0 {
		sim.Scale = *scale
		sim.ScaleForced = true
	}
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	specs := map[string]bench.AppSpec{
		"a": bench.KNNSpec().Shrink(*divisor),
		"b": bench.KMeansSpec().Shrink(*divisor),
		"c": bench.PageRankSpec().Shrink(*divisor),
	}

	runFig3 := func(panel string) []bench.EnvResult {
		spec := specs[panel]
		results, err := bench.Fig3(spec, sim, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderFig3(spec.Name, results))
		return results
	}
	runFig4 := func(panel string) []bench.EnvResult {
		spec := specs[panel]
		results, err := bench.Fig4(spec, sim, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderFig4(spec.Name, results))
		return results
	}
	runFig3All := func() [][]bench.EnvResult {
		var all [][]bench.EnvResult
		for _, p := range []string{"a", "b", "c"} {
			all = append(all, runFig3(p))
		}
		return all
	}
	runFig4All := func() [][]bench.EnvResult {
		var all [][]bench.EnvResult
		for _, p := range []string{"a", "b", "c"} {
			all = append(all, runFig4(p))
		}
		return all
	}
	runFig1 := func() {
		rows, err := bench.Fig1(500_000/max(*divisor, 1), 8)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderFig1(rows))
	}

	// emit prints an experiment's tables, writes them as JSON when
	// asked, fails on any diverged digest, and with -check-win runs the
	// experiment's acceptance gate.
	type shown struct {
		title string
		t     *bench.Table
	}
	emit := func(name string, cols []bench.Column, check func([]*bench.Table) (string, error), shows ...shown) {
		var tables []*bench.Table
		for _, s := range shows {
			fmt.Println(s.t.Render(s.title, cols))
			tables = append(tables, s.t)
		}
		if *jsonPath != "" {
			out, err := json.MarshalIndent(tables, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("%s results written to %s\n", name, *jsonPath)
		}
		for _, t := range tables {
			if !t.Match {
				fatal(fmt.Errorf("%s variants diverged from the baseline result", name))
			}
		}
		if *checkWin && check != nil {
			msg, err := check(tables)
			if err != nil {
				fatal(err)
			}
			fmt.Println(msg)
		}
	}
	scaleUp := 10_000.0 / float64(max(*divisor, 1))

	switch strings.ToLower(*experiment) {
	case "ablation":
		pages := []int64{25_000, 75_000, 150_000, 300_000}
		for i := range pages {
			pages[i] /= max(*divisor, 1)
		}
		for _, s := range []shown{
			{"Ablation — consecutive vs scattered job assignment (knn)", must(bench.AblationConsecutive(specs["a"], sim, logf))},
			{"Ablation — retrieval thread count (knn)", must(bench.AblationFetchThreads(specs["a"], sim, []int{1, 2, 4, 8, 16}, logf))},
			{"Ablation — master refill batch size (knn)", must(bench.AblationBatch(specs["a"], sim, []int{4, 16, 64, 240}, logf))},
			{"Ablation — reduction object size (pagerank)", must(bench.AblationObjectSize(sim, pages, logf))},
			{"Ablation — dynamic pooling vs static partition under ±60% core jitter (kmeans)", must(bench.AblationPooling(specs["b"], sim, 0.6, logf))},
		} {
			fmt.Println(s.t.Render(s.title, bench.AblationColumns))
		}
	case "chaos":
		params := bench.DefaultChaos(*faultSeed)
		params.TransientProb = *faultTransient
		params.SlowDownProb = *faultSlowdown
		params.Heartbeat = *heartbeat
		emit("chaos", bench.ChaosColumns, nil,
			shown{"Chaos — knn, fault injection vs clean run; plan " + params.String(), must(bench.Chaos(specs["a"], sim, params, logf))})
	case "overlap":
		emit("overlap", bench.OverlapColumns, nil,
			shown{"Overlap ablation — knn single pass, all data in S3", must(bench.Overlap(specs["a"], sim, 0, logf))},
			shown{"Overlap ablation — pagerank power iterations, all data in S3", must(bench.Overlap(specs["c"], sim, *overlapIters, logf))})
	case "autotune":
		var shows []shown
		for _, t := range must(bench.AutotuneGrid(specs["a"], sim, logf)) {
			shows = append(shows, shown{"Fetch autotune — knn, static thread counts vs AIMD controller (speedup vs static-2)", t})
		}
		emit("autotune", bench.AutotuneColumns, bench.CheckAutotune, shows...)
	case "elastic":
		emit("elastic", bench.ElasticColumns, bench.CheckElastic,
			shown{"Deadline sweep — knn, deadline-driven cloud provisioning", must(bench.ElasticSweep(specs["a"], sim, scaleUp, logf))})
	case "advisor":
		emit("advisor", bench.AdvisorColumns, bench.CheckAdvisor,
			shown{"Advisor warm-vs-cold — knn, history-warmed vs cold-start elastic", must(bench.AdvisorSweep(specs["a"], sim, scaleUp, *historyDir, logf))})
	case "spot":
		emit("spot", bench.SpotColumns, bench.CheckSpot,
			shown{"Spot preemption sweep — knn, spot-preemption-tolerant bursting", must(bench.SpotSweep(specs["a"], sim, scaleUp, logf))})
	case "buffer":
		emit("buffer", bench.BufferColumns, bench.CheckBuffer,
			shown{"Burst buffer — knn single pass, all data in S3", must(bench.Buffer(specs["a"], sim, 0, logf))},
			shown{"Burst buffer — pagerank power iterations, all data in S3", must(bench.Buffer(specs["c"], sim, *overlapIters, logf))})
	case "sync":
		emit("sync", bench.SyncColumns, bench.CheckSync,
			shown{"Global-reduction sync — pagerank, all data in S3, 32 cloud cores", must(bench.SyncPageRank(specs["c"], sim, logf))})
	case "cost":
		results := runFig3("a")
		fmt.Println(bench.RenderCost(results, bench.AWS2011(), scaleUp))
	case "fig1":
		runFig1()
	case "fig3a", "fig3b", "fig3c":
		runFig3(strings.TrimPrefix(strings.ToLower(*experiment), "fig3"))
	case "fig3":
		all := runFig3All()
		fmt.Println(bench.RenderTable1(all))
		fmt.Println(bench.RenderTable2(all))
	case "table1":
		fmt.Println(bench.RenderTable1(runFig3All()))
	case "table2":
		fmt.Println(bench.RenderTable2(runFig3All()))
	case "fig4a", "fig4b", "fig4c":
		runFig4(strings.TrimPrefix(strings.ToLower(*experiment), "fig4"))
	case "fig4", "summary":
		fig3 := runFig3All()
		fig4 := runFig4All()
		fmt.Println(bench.RenderSummary(fig3, fig4))
	case "all":
		runFig1()
		fig3 := runFig3All()
		fmt.Println(bench.RenderTable1(fig3))
		fmt.Println(bench.RenderTable2(fig3))
		fig4 := runFig4All()
		fmt.Println(bench.RenderSummary(fig3, fig4))
	default:
		fatal(fmt.Errorf("unknown experiment %q", *experiment))
	}
}

// must returns v, exiting on err.
func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbbench:", err)
	os.Exit(1)
}
