// Command benchmark is the repository's one repeatable benchmark: four
// named workloads through the real head/master/slave stack, checked
// against a sequential oracle, with end-to-end metrics measured with
// tracing off and a per-layer table from a traced pass plus layer
// micro-timings. README.md says what each workload and metric is for.
//
//	bash benchmark/run.sh                       all workloads, summary, results/latest.json
//	bash benchmark/run.sh --workload knn-cloud --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	setupReps    = 3 // set-ups per run; setup_s takes their median
	minTrials    = 3
	childTimeout = 180 * time.Second
)

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDetail is what one run leaves in the results directory: the
// result line plus per-trial values, for latest.json and -compare.
type runDetail struct {
	Workload     string
	Seed         int64
	Traced       bool
	Seconds      float64
	Attempted    int
	Failed       int
	Failures     []string `json:",omitempty"`
	Digest       string
	OracleDigest string
	Metrics      map[string]float64
	// Trials holds the timed, untraced trials' values per end-to-end
	// metric (setup_s: each set-up repetition plus the one warm-up).
	Trials map[string][]float64
}

func main() {
	workloadName := flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
	seed := flag.Int64("seed", 1, "derives every generator seed")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1: traced pass and layer micro-timings, reporting the per-layer metrics")
	outDir := flag.String("out", filepath.Join("benchmark", "results"), "directory for traces and result files")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *workloadName == "":
		err = runAll(*seed, *seconds, *outDir)
	default:
		err = runOne(*workloadName, *seed, *seconds, *trace == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errFailedRuns = errors.New("some runs failed")

// runOne measures one workload in this process, prints every metric by
// name with its unit and both digests, and ends with the result line.
// It returns errFailedRuns (after printing) when any run failed.
func runOne(name string, seed int64, seconds float64, traced bool, outDir string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	d, err := measure(w, seed, seconds, traced, outDir)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: d.Failed == 0, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s seed %d: %d timed trials, %d runs attempted, %d failed\n",
		name, seed, len(d.Trials["makespan_emu_s"]), d.Attempted, d.Failed)
	fmt.Printf("  digest  %s\n  oracle  %s\n", d.Digest, d.OracleDigest)
	for _, f := range d.Failures {
		fmt.Printf("  FAILED  %s\n", f)
	}
	for _, def := range defs {
		v := d.Metrics[def.Name]
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
		fmt.Printf("  %-32s %14.6g %s\n", def.Name, v, def.Unit)
	}
	if err := writeJSON(detailPath(outDir, name, traced), d); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if d.Failed > 0 {
		return errFailedRuns
	}
	return nil
}

// measure sets w up, runs it for about seconds and returns the end-to-
// end metrics (tracing off) or the per-layer ones (traced, which also
// writes the trace file into outDir).
func measure(w *workload, seed int64, seconds float64, traced bool, outDir string) (*runDetail, error) {
	d := &runDetail{Workload: w.name, Seed: seed, Traced: traced, Seconds: seconds,
		Metrics: map[string]float64{}, Trials: map[string][]float64{}}

	// Set-up, several times over; the last one is kept.
	var in *instance
	for rep := 0; rep < setupReps; rep++ {
		if in != nil {
			in.close()
			in = nil
		}
		start := time.Now()
		var err error
		if in, err = w.setUp(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d.Trials["setup_s"] = append(d.Trials["setup_s"], time.Since(start).Seconds())
	}
	defer in.close()
	d.OracleDigest = in.oracle.digest

	note := func(t *trial) *trial {
		d.Attempted++
		d.Digest = t.digest
		if t.failure != "" {
			d.Failed++
			d.Failures = append(d.Failures, t.failure)
		}
		return t
	}
	// Untimed warm-up (the first run in a process is slow); its cost
	// belongs to set-up.
	warmStart := time.Now()
	longest := 0.0
	for i := 0; i < w.warmups; i++ {
		longest = max(longest, note(in.run(nil)).wallS)
	}
	warm := time.Since(warmStart).Seconds()
	for i := range d.Trials["setup_s"] {
		d.Trials["setup_s"][i] += warm
	}

	// Timed trials until the next one would overrun. A traced run
	// alternates bare and traced trials, so that the tracing overhead
	// compares like with like, and leaves the rest of its time to the
	// layer micro-timings. Those come last so that the peak RSS read
	// before them is the workload's, not theirs.
	budget := seconds
	if traced {
		budget = seconds * 0.6
	}
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	var bare, withTrace []*trial
	tr := &tracer{}
	for n := 0; ; n++ {
		enough := len(bare) >= minTrials
		if traced {
			enough = len(bare) >= 2 && len(withTrace) >= 1
		}
		if enough && time.Now().Add(time.Duration(longest*float64(time.Second))).After(deadline) {
			break
		}
		var t *trial
		if traced && n%2 == 1 {
			tr.run = int64(n)
			t = note(in.run(tr))
			withTrace = append(withTrace, t)
		} else {
			t = note(in.run(nil))
			bare = append(bare, t)
		}
		longest = max(longest, t.wallS)
	}

	var makespans, costs, walls, cpus, cpuShares []float64
	for _, t := range bare {
		makespans = append(makespans, t.makespanS)
		costs = append(costs, t.costUSD)
		walls = append(walls, t.wallS)
		cpus = append(cpus, t.cpuS)
		cpuShares = append(cpuShares, t.cpuS/t.wallS)
		d.Trials["throughput_mb_s"] = append(d.Trials["throughput_mb_s"], float64(in.bytes)/1e6/t.wallS)
	}
	d.Trials["makespan_emu_s"], d.Trials["cloud_cost_usd"] = makespans, costs

	// A paced trial is built from sleeps and its noise is small and
	// two-sided: the median. An unpaced rep is real CPU on a shared
	// host, which only ever adds time, in bursts: the 10th percentile
	// of the (many) reps is the undisturbed speed and moves with the
	// code, not with the neighbours.
	typical := median
	if !w.paced() {
		typical = func(v []float64) float64 { return quantile(v, 0.1) }
	}
	if !traced {
		d.Metrics["makespan_emu_s"] = typical(makespans)
		d.Metrics["cloud_cost_usd"] = typical(costs)
		d.Metrics["throughput_mb_s"] = float64(in.bytes) / 1e6 / typical(walls)
		d.Metrics["setup_s"] = median(d.Trials["setup_s"])
		return d, nil
	}
	_, d.Metrics["bench.peak_rss_mb"] = rusage()
	micro, err := microTimings(time.Duration(seconds / 60 * float64(time.Second)))
	if err != nil {
		return nil, fmt.Errorf("layer micro-timings: %w", err)
	}
	for k, v := range micro {
		d.Metrics[k] = v
	}
	layerMetrics(d.Metrics, in, withTrace[len(withTrace)-1], tr)
	var tracedSpans []float64
	for _, t := range withTrace {
		tracedSpans = append(tracedSpans, t.makespanS)
	}
	lo, hi := minMax(makespans)
	d.Metrics["cluster.run_ms_p90"] = quantile(walls, 0.9) * 1e3
	d.Metrics["netsim.host_cpu_s"] = median(cpus)
	d.Metrics["netsim.host_cpu_per_wall"] = median(cpuShares)
	d.Metrics["workload.gen_mb_s"] = float64(in.bytes) / 1e6 / in.genSeconds
	d.Metrics["bench.trial_spread_pct"] = (hi - lo) / median(makespans) * 100
	d.Metrics["bench.trace_overhead_pct"] = (typical(tracedSpans)/typical(makespans) - 1) * 100
	return d, tr.writeChromeTrace(filepath.Join(outDir, "trace-"+w.name+".json"))
}

func detailPath(outDir, name string, traced bool) string {
	kind := "timed"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, "run-"+name+"-"+kind+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultSet is results/latest.json: one complete set of runs.
type resultSet struct {
	Commit    string
	Seed      int64
	Seconds   float64
	NProc     int
	GoVersion string
	Runs      []*runDetail
}

// runAll runs every workload, timed then traced, each in a child
// process of its own so that pools, heap and peak RSS do not leak from
// one workload into the next. A child that errors, times out or leaves
// no result counts as a failed run.
func runAll(seed int64, seconds float64, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Commit: "unknown", Seed: seed, Seconds: seconds, NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		set.Commit = strings.TrimSpace(string(out))
	}
	failed := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			path := detailPath(outDir, w.name, traced)
			os.Remove(path)
			flagTrace := "0"
			if traced {
				flagTrace = "1"
			}
			ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
			cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", flagTrace, "--out", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			cancel()
			d := &runDetail{}
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, d)
			}
			if err != nil {
				fmt.Printf("workload %s: child left no result (%v, %v): counted as one failed run\n", w.name, runErr, err)
				failed++
				continue
			}
			failed += d.Failed
			set.Runs = append(set.Runs, d)
		}
	}
	printSummary(set, failed)
	if err := writeJSON(filepath.Join(outDir, "latest.json"), set); err != nil {
		return err
	}
	if failed > 0 {
		return errFailedRuns
	}
	return nil
}

func printSummary(set *resultSet, failed int) {
	fmt.Printf("\n== end to end (commit %s, seed %d, nproc %d, %s) ==\n", set.Commit, set.Seed, set.NProc, set.GoVersion)
	fmt.Printf("%-14s %-16s %-5s %13s %13s %13s %3s\n", "workload", "metric", "unit", "median", "min", "max", "n")
	for _, d := range set.Runs {
		if d.Traced {
			continue
		}
		for _, def := range endToEnd {
			lo, hi := minMax(d.Trials[def.Name])
			fmt.Printf("%-14s %-16s %-5s %13.6g %13.6g %13.6g %3d\n", d.Workload, def.Name, def.Unit,
				d.Metrics[def.Name], lo, hi, len(d.Trials[def.Name]))
		}
	}
	fmt.Printf("failed_runs %d (count of attempted)\n", failed)
	fmt.Printf("\n== per layer (traced pass and micro-timings) ==\n%-32s %-6s", "metric", "unit")
	var tracedRuns []*runDetail
	for _, d := range set.Runs {
		if d.Traced {
			tracedRuns = append(tracedRuns, d)
			fmt.Printf(" %14s", d.Workload)
		}
	}
	fmt.Println()
	for _, def := range perLayer {
		fmt.Printf("%-32s %-6s", def.Name, def.Unit)
		for _, d := range tracedRuns {
			fmt.Printf(" %14.6g", d.Metrics[def.Name])
		}
		fmt.Println()
	}
}
