// Command cbhead runs the head node: it loads the index, generates the
// job pool, serves job requests from the clusters' masters (locality
// first, then work stealing), performs the global reduction, and
// prints the run report.
//
//	cbhead -index ./data/index.cbix -app knn -params k=1000,dims=3 \
//	       -clusters 2 -listen :7070
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"cloudburst/internal/advisor"
	_ "cloudburst/internal/apps" // register built-in applications
	"cloudburst/internal/cli"
	"cloudburst/internal/cli/debugsrv"
	"cloudburst/internal/cluster"
	"cloudburst/internal/elastic"
	"cloudburst/internal/gr"
	"cloudburst/internal/netsim"
)

func main() {
	var (
		indexPath = flag.String("index", "index.cbix", "index file")
		appName   = flag.String("app", "", "application name (required)")
		params    = flag.String("params", "", "application parameters, k=v,k2=v2")
		clusters  = flag.Int("clusters", 2, "number of masters expected")
		listen    = flag.String("listen", ":7070", "listen address")
		heartbeat = flag.Duration("heartbeat", 0, "declare a silent master lost after 3 missed intervals (0 disables)")
		syncMode  = flag.String("sync-mode", "", "global-reduction sync: streamed-parallel (default) or monolithic")
		quiet     = flag.Bool("q", false, "suppress progress logging")

		deadline     = flag.Duration("deadline", 0, "run deadline; enables the elastic scaling controller (0 disables)")
		elasticSite  = flag.String("elastic-site", "cloud", "site the elastic controller scales")
		elasticMin   = flag.Int("elastic-min", 1, "elastic: minimum workers at the scaled site")
		elasticMax   = flag.Int("elastic-max", 16, "elastic: maximum workers at the scaled site")
		elasticBoot  = flag.Duration("elastic-boot", 60*time.Second, "elastic: boot latency assumed for new instances")
		elasticWork  = flag.String("elastic-workers", "", "elastic: initial workers per site, site=count,... (required with -deadline)")
		instanceRate = flag.Float64("elastic-instance-rate", 0.17, "elastic: USD per worker-hour (on-demand)")
		egressRate   = flag.Float64("elastic-egress-rate", 0.12, "elastic: USD per GiB crossing sites")
		spotRate     = flag.Float64("elastic-spot-rate", 0, "elastic: USD per spot worker-hour; boots ride the revocable spot tier (0 disables)")
		odFallback   = flag.Int("elastic-od-fallback", 3, "elastic: revocations before replacements switch to on-demand")
		costCap      = flag.Float64("elastic-cost-cap", 0, "elastic: refuse scale-ups whose projected bill exceeds this USD cap (0 disables)")

		advise     = flag.String("advise", "", "plan the burst from run history: the advised fleet warm-starts the elastic controller; value is the link class to match (e.g. prod-wan); requires -history-dir and -deadline")
		historyDir = flag.String("history-dir", "", "run-history database: completed runs are recorded here, and -advise plans from it")
		budget     = flag.Float64("advise-budget", 0, "advise: USD cap on the plan's expected cost (0 = uncapped)")
		debug      = debugsrv.Flag()
	)
	flag.Parse()
	if ln, err := debugsrv.Serve(*debug); err != nil {
		fatal(err)
	} else if ln != nil {
		fmt.Fprintf(os.Stderr, "cbhead: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	if *appName == "" {
		fatal(fmt.Errorf("-app is required (one of %v)", gr.Apps()))
	}

	p, err := cli.ParseParams(*params)
	if err != nil {
		fatal(err)
	}
	app, err := gr.New(*appName, p)
	if err != nil {
		fatal(err)
	}
	idx, err := cli.ReadIndexFile(*indexPath)
	if err != nil {
		fatal(err)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	cfg := cluster.HeadConfig{
		App: app, Index: idx, Clusters: *clusters,
		Clock: netsim.Real(), Logf: logf,
		HeartbeatInterval: *heartbeat,
		SyncMode:          *syncMode,
	}
	// The history database: -advise plans from it before the run, and
	// every completed run is recorded into it afterwards.
	var (
		hist *advisor.Store
		plan *advisor.Plan
	)
	dataBytes := int64(0)
	for _, f := range idx.Files {
		dataBytes += f.Size
	}
	if *historyDir != "" {
		var err error
		if hist, err = advisor.Open(*historyDir); err != nil {
			fatal(err)
		}
	}
	if *advise != "" {
		if hist == nil {
			fatal(fmt.Errorf("-advise requires -history-dir"))
		}
		if *deadline <= 0 {
			fatal(fmt.Errorf("-advise requires -deadline (the plan sizes a fleet against it)"))
		}
		history, err := hist.Load()
		if err != nil {
			fatal(err)
		}
		p := advisor.Advise(history, advisor.Request{
			App: *appName, Env: *advise, DataBytes: dataBytes,
			Deadline: *deadline, BudgetUSD: *budget, MaxCloud: *elasticMax,
			BootLatency: *elasticBoot, InstanceRate: *instanceRate,
			EgressRate: *egressRate,
		})
		plan = &p
		fmt.Println("cbhead:", p.String())
	}

	if *deadline > 0 {
		workers, err := cli.ParseParams(*elasticWork)
		if err != nil || len(workers) == 0 {
			fatal(fmt.Errorf("-deadline requires -elastic-workers site=count,... (%v)", err))
		}
		wmap := make(map[string]int, len(workers))
		for s, v := range workers {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				fatal(fmt.Errorf("-elastic-workers %s=%q: not a worker count", s, v))
			}
			wmap[s] = n
		}
		seed := 0
		if plan != nil && plan.Burst {
			seed = plan.CloudCores
		}
		cfg.Elastic = elastic.New(elastic.Config{
			Site: *elasticSite, Deadline: *deadline,
			MinWorkers: *elasticMin, MaxWorkers: *elasticMax,
			SeedWorkers:  seed,
			BootLatency:  *elasticBoot,
			InstanceRate: *instanceRate, EgressRate: *egressRate,
			SpotRate: *spotRate, OnDemandFallback: *odFallback,
			CostCapUSD: *costCap,
			Workers:    wmap, Logf: logf,
		})
		// The head cannot boot machines itself: surface scale-up
		// decisions as operator instructions. Scale-downs need no
		// operator action — the site's master drains the surplus and
		// the drained cbslave processes exit on their own.
		cfg.ScaleUp = func(site string, n int, onDemand bool) {
			tier := "spot"
			if onDemand {
				tier = "on-demand"
			}
			fmt.Printf("cbhead: ELASTIC: start %d more %s worker(s) at site %s: cbslave -join -site %s -master <%s master addr> ...\n",
				n, tier, site, site, site)
		}
	}
	head, err := cluster.NewHead(cfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cbhead: %s over %d jobs (%d files), awaiting %d masters on %s\n",
		*appName, len(idx.Chunks), len(idx.Files), *clusters, ln.Addr())
	head.Serve(ln)

	report, _, err := head.Wait()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cbhead: done in %v, global reduction %v\n",
		report.TotalWall.Round(time.Millisecond), report.GlobalRed.Round(time.Millisecond))
	for _, c := range report.Clusters {
		fmt.Printf("cbhead: cluster %-8s jobs=%d stolen=%d proc=%v retr=%v sync=%v idle=%v ship=%v\n",
			c.Site, c.Workers.JobsProcessed, c.Workers.JobsStolen,
			c.Workers.Processing.Round(time.Millisecond),
			c.Workers.Retrieval.Round(time.Millisecond),
			c.Workers.Sync.Round(time.Millisecond),
			c.IdleAtEnd.Round(time.Millisecond),
			c.ResultShip.Round(time.Millisecond))
	}
	if report.Sync != nil {
		fmt.Println("cbhead:", report.Sync)
	}
	if report.Elastic != nil {
		fmt.Println("cbhead:", elastic.String(report.Elastic))
	}
	if hist != nil {
		// Record the run (with the plan's prediction error when it was
		// advised) so the next plan learns from this one.
		env := *advise
		if env == "" {
			env = "default"
		}
		report.Env = env
		rec, err := advisor.FromReport(report, advisor.ExtractOptions{
			DataBytes: dataBytes, Deadline: *deadline, Plan: plan,
		})
		if err != nil {
			fatal(err)
		}
		if err := hist.Append(rec); err != nil {
			fatal(err)
		}
		fmt.Printf("cbhead: run recorded as %s history seq %d (wall %.1fs", env, rec.Seq, rec.WallSecs)
		if plan != nil {
			fmt.Printf(", prediction error %+.1f%%", rec.WallErrPct)
		}
		fmt.Printf(") in %s\n", hist.Dir())
	}
	if report.FinalResult != "" {
		fmt.Println("cbhead: result:", report.FinalResult)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbhead:", err)
	os.Exit(1)
}
