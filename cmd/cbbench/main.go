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

		overlapIters = flag.Int("overlap-iters", 3, "overlap/buffer: pagerank power iterations")
		jsonPath     = flag.String("json", "", "overlap/autotune/elastic/advisor/spot/buffer/sync: also write results as JSON to this file")
		checkWin     = flag.Bool("check-win", false, "autotune/elastic/advisor/spot/buffer/sync: fail unless the acceptance criteria are met")
		historyDir   = flag.String("history-dir", "", "advisor: burst-history database directory (empty = throwaway temp dir)")

		faultSeed      = flag.Int64("fault-seed", 42, "chaos: fault plan seed")
		faultTransient = flag.Float64("fault-transient", 0.02, "chaos: per-request transient fault probability")
		faultSlowdown  = flag.Float64("fault-slowdown", 0.02, "chaos: per-request SlowDown throttle probability")
		heartbeat      = flag.Duration("heartbeat", 50*time.Millisecond, "chaos: liveness heartbeat interval (0 disables)")
	)
	flag.Parse()

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
		rows, err := bench.Fig1(500_000/maxI64(*divisor, 1), 8)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderFig1(rows))
	}

	runAblations := func() {
		knn := specs["a"]
		rows, err := bench.AblationConsecutive(knn, sim, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderAblation("consecutive vs scattered job assignment (knn, env-local)", rows))

		rows, err = bench.AblationFetchThreads(knn, sim, []int{1, 2, 4, 8, 16}, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderAblation("retrieval thread count (knn, env-cloud)", rows))

		rows, err = bench.AblationBatch(knn, sim, []int{4, 16, 64, 240}, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderAblation("master refill batch size (knn, env-50/50)", rows))

		pages := []int64{25_000, 75_000, 150_000, 300_000}
		if *divisor > 1 {
			for i := range pages {
				pages[i] /= *divisor
			}
		}
		rows, err = bench.AblationObjectSize(sim, pages, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderAblation("reduction object size (pagerank, env-50/50)", rows))

		rows, err = bench.AblationPooling(specs["b"], sim, 0.6, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderAblation("dynamic pooling vs static partition under ±60% core jitter (kmeans, env-50/50)", rows))
	}

	runOverlap := func() {
		knn, err := bench.OverlapSinglePass(specs["a"], sim, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderOverlap("knn single pass, all data in S3", knn))
		pr, err := bench.OverlapPageRank(specs["c"], sim, *overlapIters, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderOverlap("pagerank power iterations, all data in S3", pr))
		if *jsonPath != "" {
			out, err := json.MarshalIndent(map[string]*bench.OverlapResult{
				"knn": knn, "pagerank": pr,
			}, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("overlap results written to %s\n", *jsonPath)
		}
		if !knn.Match || !pr.Match {
			fatal(fmt.Errorf("overlap variants diverged from the baseline result"))
		}
	}

	runAutotune := func() {
		res, err := bench.AutotuneGrid(specs["a"], sim, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderAutotune("knn, static thread counts vs AIMD controller", res))
		if *jsonPath != "" {
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("autotune results written to %s\n", *jsonPath)
		}
		if !res.Match() {
			fatal(fmt.Errorf("autotune variants diverged from the baseline result"))
		}
		if *checkWin {
			cell := res.Cell("env-cloud")
			if cell == nil {
				fatal(fmt.Errorf("autotune grid has no env-cloud cell"))
			}
			auto := cell.Row("autotune")
			s2, s8 := cell.Row("static-2"), cell.Row("static-8")
			if auto == nil || s2 == nil || s8 == nil {
				fatal(fmt.Errorf("autotune grid is missing rows"))
			}
			best := s2.Seconds()
			if s8.Seconds() < best {
				best = s8.Seconds()
			}
			if auto.Seconds() > best/0.95 {
				fatal(fmt.Errorf("autotune %.1fs is worse than 0.95x the best static %.1fs",
					auto.Seconds(), best))
			}
			if auto.Seconds()*1.2 > s2.Seconds() {
				fatal(fmt.Errorf("autotune %.1fs is not 1.2x faster than static-2 %.1fs",
					auto.Seconds(), s2.Seconds()))
			}
			fmt.Printf("autotune win check: %.1fs vs best static %.1fs (%.2fx) and static-2 %.1fs (%.2fx) ✓\n",
				auto.Seconds(), best, best/auto.Seconds(), s2.Seconds(), s2.Seconds()/auto.Seconds())
		}
	}

	runElastic := func() {
		scaleUp := 10_000.0 / float64(maxI64(*divisor, 1))
		res, err := bench.ElasticSweep(specs["a"], sim, scaleUp, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderElastic("knn, deadline-driven cloud provisioning", res))
		if *jsonPath != "" {
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("elastic results written to %s\n", *jsonPath)
		}
		if !res.Match {
			fatal(fmt.Errorf("elastic variants diverged from the baseline result"))
		}
		if *checkWin {
			local := res.Row("local-only")
			static := res.Row("static-over")
			el := res.Row("elastic")
			drain := res.Row("elastic-drain")
			if local == nil || static == nil || el == nil || drain == nil {
				fatal(fmt.Errorf("elastic sweep is missing rows"))
			}
			if local.MetDeadline {
				fatal(fmt.Errorf("local-only met the %.1fs deadline (%.1fs) — deadline is not binding",
					res.Deadline.Seconds(), local.Seconds()))
			}
			if !static.MetDeadline {
				fatal(fmt.Errorf("static-over missed the %.1fs deadline (%.1fs)",
					res.Deadline.Seconds(), static.Seconds()))
			}
			if !el.MetDeadline {
				fatal(fmt.Errorf("elastic missed the %.1fs deadline (%.1fs)",
					res.Deadline.Seconds(), el.Seconds()))
			}
			if el.Boots == 0 {
				fatal(fmt.Errorf("elastic booted no workers — the controller never scaled up"))
			}
			if el.TotalUSD >= static.TotalUSD {
				fatal(fmt.Errorf("elastic cost $%.4f is not below static-over $%.4f",
					el.TotalUSD, static.TotalUSD))
			}
			if drain.Drains == 0 {
				fatal(fmt.Errorf("elastic-drain drained no workers — the controller never scaled down"))
			}
			if !drain.MetDeadline {
				fatal(fmt.Errorf("elastic-drain missed the %.1fs deadline (%.1fs)",
					res.Deadline.Seconds(), drain.Seconds()))
			}
			fmt.Printf("elastic win check: local-only %.1fs misses, elastic %.1fs at $%.4f beats static-over %.1fs at $%.4f, drain variant sheds %d ✓\n",
				local.Seconds(), el.Seconds(), el.TotalUSD,
				static.Seconds(), static.TotalUSD, drain.Drains)
		}
	}

	runAdvisor := func() {
		scaleUp := 10_000.0 / float64(maxI64(*divisor, 1))
		res, err := bench.AdvisorSweep(specs["a"], sim, scaleUp, *historyDir, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderAdvisor("knn, history-warmed vs cold-start elastic", res))
		if *jsonPath != "" {
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("advisor results written to %s\n", *jsonPath)
		}
		if !res.Match {
			fatal(fmt.Errorf("advisor runs diverged from the cold-start result"))
		}
		if *checkWin {
			cold := res.Row("cold")
			warm := res.Row("warm")
			warm2 := res.Row("warm-2")
			if cold == nil || warm == nil || warm2 == nil {
				fatal(fmt.Errorf("advisor sequence is missing rows"))
			}
			if cold.RampEvents == 0 {
				fatal(fmt.Errorf("cold run needed no reactive ramp — the deadline is not binding"))
			}
			if !res.Plan.Burst || res.Plan.CloudCores <= 0 {
				fatal(fmt.Errorf("advisor did not recommend a burst from the cold run's history: %s", res.Plan))
			}
			// The warm start's claim is the ramp replacement, so ramp
			// events are strict for every warm run. Wall clock is owned
			// by the live controller after the seed, whose late-run
			// drain/re-ramp hysteresis is timing noise at bench scale:
			// require the best warm run to beat cold outright and bound
			// the rest at 1.10x so a real regression still fails.
			best := warm
			if warm2.TotalEmu < best.TotalEmu {
				best = warm2
			}
			if best.TotalEmu > cold.TotalEmu {
				fatal(fmt.Errorf("best warm run %.1fs is slower than cold-start %.1fs",
					best.Seconds(), cold.Seconds()))
			}
			for _, w := range []*bench.AdvisorRow{warm, warm2} {
				if w.RampEvents >= cold.RampEvents {
					fatal(fmt.Errorf("%s run still needed %d reactive ramp events (cold: %d) — warm start did not replace the ramp",
						w.Label, w.RampEvents, cold.RampEvents))
				}
				if float64(w.TotalEmu) > 1.10*float64(cold.TotalEmu) {
					fatal(fmt.Errorf("%s run %.1fs is >1.10x cold-start %.1fs",
						w.Label, w.Seconds(), cold.Seconds()))
				}
			}
			// No absolute-deadline assertion: at aggressive shrink
			// factors the derived deadline can be unreachable for every
			// variant; the win is the ramp replacement, not the deadline.
			fmt.Printf("advisor win check: plan %d cores (conf %.2f); warm %.1fs vs cold %.1fs, ramp events %d vs %d (%.1fs of discovery saved), cost delta %+.4f $, wall prediction err %+.1f%% ✓\n",
				res.Plan.CloudCores, res.Plan.Confidence,
				warm.Seconds(), cold.Seconds(), warm.RampEvents, cold.RampEvents,
				res.RampSecsSaved, res.CostDeltaUSD, warm.WallErrPct)
		}
	}

	runSpot := func() {
		scaleUp := 10_000.0 / float64(maxI64(*divisor, 1))
		res, err := bench.SpotSweep(specs["a"], sim, scaleUp, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderSpot("knn, spot-preemption-tolerant bursting", res))
		if *jsonPath != "" {
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("spot results written to %s\n", *jsonPath)
		}
		if !res.Match {
			fatal(fmt.Errorf("spot variants diverged from the clean result"))
		}
		if *checkWin {
			clean := res.Row("clean")
			warned := res.Row("warned-drain")
			ckpt := res.Row("unwarned-kill")
			nockpt := res.Row("unwarned-nockpt")
			if clean == nil || warned == nil || ckpt == nil || nockpt == nil {
				fatal(fmt.Errorf("spot sweep is missing rows"))
			}
			for _, r := range []*bench.SpotRow{warned, ckpt, nockpt} {
				if r.Revocations == 0 {
					fatal(fmt.Errorf("%s revoked no workers — the trace never fired", r.Label))
				}
			}
			if warned.DrainsCompleted == 0 {
				fatal(fmt.Errorf("warned-drain completed no drains — every warning window closed mid-flush"))
			}
			if ckpt.JobsRecovered == 0 {
				fatal(fmt.Errorf("unwarned-kill adopted no checkpointed work"))
			}
			if ckpt.JobsRequeued >= nockpt.JobsRequeued {
				fatal(fmt.Errorf("checkpointing did not cut re-execution: %d requeued vs %d without",
					ckpt.JobsRequeued, nockpt.JobsRequeued))
			}
			// Late revocations leave no runway to re-provision, so full
			// re-execution extends the tail past the deadline while
			// checkpointed recovery stays inside it — the headline win.
			if ckpt.TotalEmu >= nockpt.TotalEmu {
				fatal(fmt.Errorf("checkpointing did not cut wall time: %.1fs vs %.1fs without",
					ckpt.Seconds(), nockpt.Seconds()))
			}
			if !ckpt.MetDeadline {
				fatal(fmt.Errorf("unwarned-kill missed the %.1fs deadline (%.1fs) despite checkpoints and fallback",
					res.Deadline.Seconds(), ckpt.Seconds()))
			}
			if nockpt.MetDeadline {
				fatal(fmt.Errorf("unwarned-nockpt met the deadline anyway (%.1fs <= %.1fs) — the trace is too gentle to discriminate",
					nockpt.Seconds(), res.Deadline.Seconds()))
			}
			// Cost is the controller's noisy dual of wall time (it spends
			// replacements to chase the deadline), so guard against a
			// blowup rather than asserting a strict win.
			if ckpt.TotalUSD > nockpt.TotalUSD*1.25 {
				fatal(fmt.Errorf("checkpointed recovery cost blew up: $%.4f vs $%.4f without",
					ckpt.TotalUSD, nockpt.TotalUSD))
			}
			if ckpt.OnDemandWorkers == 0 && nockpt.OnDemandWorkers == 0 {
				fatal(fmt.Errorf("no variant fell back to on-demand replacements after %d revocations",
					ckpt.Revocations))
			}
			fmt.Printf("spot win check: %d revocations; drains %d/%d; checkpoints save %d jobs (%d vs %d requeued), meet the deadline (%.1fs vs %.1fs MISS); on-demand fallback %d ✓\n",
				ckpt.Revocations, warned.DrainsCompleted, warned.DrainsAborted,
				ckpt.JobsRecovered, ckpt.JobsRequeued, nockpt.JobsRequeued,
				ckpt.Seconds(), nockpt.Seconds(), ckpt.OnDemandWorkers)
		}
	}

	runBuffer := func() {
		knn, err := bench.BufferSinglePass(specs["a"], sim, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderBuffer("knn single pass, all data in S3", knn))
		pr, err := bench.BufferPageRank(specs["c"], sim, *overlapIters, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderBuffer("pagerank power iterations, all data in S3", pr))
		if *jsonPath != "" {
			out, err := json.MarshalIndent(map[string]*bench.BufferResult{
				"knn": knn, "pagerank": pr,
			}, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("buffer results written to %s\n", *jsonPath)
		}
		if !knn.Match || !pr.Match {
			fatal(fmt.Errorf("buffer variants diverged from the baseline result"))
		}
		if *checkWin {
			for _, res := range []*bench.BufferResult{knn, pr} {
				for _, label := range []string{"cold-buffer", "staged-buffer"} {
					r := res.Row(label)
					if r == nil {
						fatal(fmt.Errorf("buffer %s ablation is missing the %s row", res.App, label))
					}
					if r.Retrieval.BufferHits+r.Retrieval.BufferMisses == 0 {
						fatal(fmt.Errorf("buffer %s %s routed no reads through the buffer", res.App, label))
					}
				}
				if res.Row("staged-buffer").Retrieval.StagedBytes == 0 {
					fatal(fmt.Errorf("buffer %s staged-buffer staged nothing", res.App))
				}
			}
			// The headline win: over multiple pagerank iterations, the
			// staged buffer must beat the bufferless baseline on both
			// wall clock and S3 egress.
			base, staged := pr.Row("no-buffer"), pr.Row("staged-buffer")
			if staged.TotalEmu >= base.TotalEmu {
				fatal(fmt.Errorf("staged buffer did not cut wall time: %.1fs vs %.1fs without",
					staged.Seconds(), base.Seconds()))
			}
			if staged.EgressBytes >= base.EgressBytes {
				fatal(fmt.Errorf("staged buffer did not cut S3 egress: %d vs %d bytes without",
					staged.EgressBytes, base.EgressBytes))
			}
			fmt.Printf("buffer win check: pagerank staged %.1fs vs %.1fs no-buffer (%.2fx), egress %.1f MB vs %.1f MB (%.0f%% saved), digests identical ✓\n",
				staged.Seconds(), base.Seconds(), base.TotalEmu.Seconds()/staged.TotalEmu.Seconds(),
				float64(staged.EgressBytes)/(1<<20), float64(base.EgressBytes)/(1<<20),
				100*(1-float64(staged.EgressBytes)/float64(base.EgressBytes)))
		}
	}

	runSync := func() {
		res, err := bench.SyncPageRank(specs["c"], sim, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderSync("pagerank, all data in S3, 32 cloud cores", res))
		if *jsonPath != "" {
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("sync results written to %s\n", *jsonPath)
		}
		if !res.Match {
			fatal(fmt.Errorf("sync variants diverged from the baseline result"))
		}
		if *checkWin {
			mono := res.Row("monolithic-serial")
			par := res.Row("streamed-parallel")
			if mono == nil || par == nil {
				fatal(fmt.Errorf("sync ablation is missing rows"))
			}
			if mono.Sync.Parts != 0 {
				fatal(fmt.Errorf("monolithic-serial streamed %d parts — the baseline is contaminated", mono.Sync.Parts))
			}
			if par.Sync.Parts == 0 {
				fatal(fmt.Errorf("sync %s streamed no object parts", par.Label))
			}
			if par.Sync.StreamedBytes == 0 {
				fatal(fmt.Errorf("sync %s counted no streamed bytes", par.Label))
			}
			if par.TotalEmu >= mono.TotalEmu {
				fatal(fmt.Errorf("sync %s did not beat monolithic-serial: %.1fs vs %.1fs",
					par.Label, par.Seconds(), mono.Seconds()))
			}
			// A lone cluster's own combine is the final, so the streamed
			// arm skips the Final broadcast monolithic still pays.
			if ratio := mono.Seconds() / par.Seconds(); ratio < 1.15 {
				fatal(fmt.Errorf("sync streamed-parallel is only %.2fx over monolithic-serial, want >= 1.15x", ratio))
			}
			if par.Sync.MaxParallel < 2 {
				fatal(fmt.Errorf("streamed-parallel never merged concurrently (max parallelism %d)",
					par.Sync.MaxParallel))
			}
			fmt.Printf("sync win check: streamed-parallel %.1fs vs monolithic %.1fs (%.2fx), %d parts, max merge parallelism %d, digests identical ✓\n",
				par.Seconds(), mono.Seconds(), mono.Seconds()/par.Seconds(),
				par.Sync.Parts, par.Sync.MaxParallel)
		}
	}

	runChaos := func() {
		params := bench.DefaultChaos(*faultSeed)
		params.TransientProb = *faultTransient
		params.SlowDownProb = *faultSlowdown
		params.Heartbeat = *heartbeat
		r, err := bench.Chaos(specs["a"], sim, params, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderChaos(r))
		if !r.Match {
			fatal(fmt.Errorf("chaos run diverged from clean run"))
		}
	}

	switch strings.ToLower(*experiment) {
	case "ablation":
		runAblations()
	case "chaos":
		runChaos()
	case "overlap":
		runOverlap()
	case "autotune":
		runAutotune()
	case "elastic":
		runElastic()
	case "advisor":
		runAdvisor()
	case "spot":
		runSpot()
	case "buffer":
		runBuffer()
	case "sync":
		runSync()
	case "cost":
		results := runFig3("a")
		scaleUp := 10_000.0 / float64(maxI64(*divisor, 1))
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

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbbench:", err)
	os.Exit(1)
}
