// Command cbrun executes a complete cloud-bursting job in a single
// process: it materializes (or loads) the data set, deploys a head,
// two masters, and the configured virtual cores over loopback TCP, and
// prints the result and the timing breakdown. With -emulate it applies
// the calibrated network/compute emulation (the environment the
// benchmarks run in); without it, everything runs at full host speed.
//
//	cbrun -app wordcount -records 2000000 -local-pct 50 \
//	      -local-cores 4 -cloud-cores 4
//	cbrun -app knn -emulate -local-pct 17 -local-cores 16 -cloud-cores 16
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cloudburst/internal/bench"
	"cloudburst/internal/cli"
	"cloudburst/internal/cluster"
)

func main() {
	var (
		appName    = flag.String("app", "wordcount", "application (knn, kmeans, pagerank, wordcount)")
		params     = flag.String("params", "", "application parameters, k=v,k2=v2")
		records    = flag.Int64("records", 0, "record count (0 = the app's calibrated default)")
		files      = flag.Int("files", 32, "data files")
		jobs       = flag.Int("jobs", 960, "jobs (chunks)")
		localPct   = flag.Int("local-pct", 50, "percent of files stored at the local site")
		localCores = flag.Int("local-cores", 4, "local cluster cores")
		cloudCores = flag.Int("cloud-cores", 4, "cloud cluster cores")
		emulate    = flag.Bool("emulate", false, "apply the calibrated network/compute emulation")
		verbose    = flag.Bool("v", false, "log cluster progress")
	)
	flag.Parse()

	var spec bench.AppSpec
	switch *appName {
	case "knn":
		spec = bench.KNNSpec()
	case "kmeans":
		spec = bench.KMeansSpec()
	case "pagerank":
		spec = bench.PageRankSpec()
	case "wordcount":
		spec = bench.WordCountSpec()
	default:
		fatal(fmt.Errorf("unknown app %q", *appName))
	}
	if *params != "" {
		p, err := cli.ParseParams(*params)
		if err != nil {
			fatal(err)
		}
		for k, v := range p {
			spec.Params[k] = v
		}
	}
	if *records > 0 {
		spec.Records = *records
	}
	spec.Files = *files
	spec.Jobs = *jobs

	sim := bench.DefaultSim()
	if !*emulate {
		// Full host speed: no pacing, no shaping.
		sim = bench.SimParams{Scale: 0, ScaleForced: true, FetchThreads: 8, FetchRange: 256 << 10, GroupUnits: 4096}
		spec.Params["cost"] = "0s"
	}
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	start := time.Now()
	res, err := bench.Execute(bench.RunConfig{
		Spec: spec, LocalPct: *localPct,
		LocalCores: *localCores, CloudCores: *cloudCores,
		Sim: sim, Deploy: cluster.DeployConfig{Logf: logf},
	})
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	r := res.Report
	fmt.Printf("cbrun: %s %s cores=(%d,%d)\n", res.App, res.Env, res.LocalCores, res.CloudCores)
	if *emulate {
		fmt.Printf("cbrun: emulated execution %.1f s (wall %v)\n", r.TotalWall.Seconds(), wall.Round(time.Millisecond))
	} else {
		fmt.Printf("cbrun: execution %v\n", wall.Round(time.Millisecond))
	}
	for _, c := range r.Clusters {
		fmt.Printf("cbrun: %-6s cores=%-3d jobs=%-4d stolen=%-4d proc=%.1fs retr=%.1fs sync=%.1fs idle=%.1fs\n",
			c.Site, c.Cores, c.Workers.JobsProcessed, c.Workers.JobsStolen,
			c.Workers.DivideTimes(c.Cores).Processing.Seconds(),
			c.Workers.DivideTimes(c.Cores).Retrieval.Seconds(),
			c.Workers.DivideTimes(c.Cores).Sync.Seconds(),
			c.IdleAtEnd.Seconds())
	}
	fmt.Printf("cbrun: global reduction %.3fs\n", r.GlobalRed.Seconds())
	if r.FinalResult != "" {
		fmt.Println("cbrun: result:", r.FinalResult)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbrun:", err)
	os.Exit(1)
}
