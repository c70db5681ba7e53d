package main

import (
	"fmt"
	"math"
	"syscall"
	"time"

	"cloudburst"
)

// outcome is a run's final result in comparable form: the
// application's own digest plus the values behind it. Float sums
// depend on merge order, so values compare within a tolerance while
// everything discrete compares exactly.
type outcome struct {
	digest string
	ids    []int64   // knn neighbour ids, best first
	counts []int64   // kmeans cluster sizes
	values []float64 // knn distances, kmeans means, pagerank ranks
}

func newOutcome(app cloudburst.App, final cloudburst.Reduction) (*outcome, error) {
	s, ok := app.(cloudburst.Summarizer)
	if !ok {
		return nil, fmt.Errorf("app %s has no digest", app.Name())
	}
	digest, err := s.Summarize(final)
	if err != nil {
		return nil, err
	}
	o := &outcome{digest: digest}
	switch r := final.(type) {
	case cloudburst.Neighborer:
		for _, n := range r.Neighbors() {
			o.ids = append(o.ids, n.ID)
			o.values = append(o.values, n.Score)
		}
	case cloudburst.Meaner:
		o.counts = r.Counts()
		for _, m := range r.Means() {
			o.values = append(o.values, m...)
		}
	case cloudburst.Ranker:
		o.values = r.NextRanks()
	default:
		return nil, fmt.Errorf("no comparable form for reduction %T", final)
	}
	return o, nil
}

// differs says how o departs from the oracle, or "" when it matches.
func (o *outcome) differs(oracle *outcome) string {
	if o.digest != oracle.digest {
		return "digest differs"
	}
	if len(o.ids) != len(oracle.ids) || len(o.counts) != len(oracle.counts) || len(o.values) != len(oracle.values) {
		return "result shape differs"
	}
	for i := range o.ids {
		if o.ids[i] != oracle.ids[i] {
			return fmt.Sprintf("neighbour %d is id %d, oracle has %d", i, o.ids[i], oracle.ids[i])
		}
	}
	for i := range o.counts {
		if o.counts[i] != oracle.counts[i] {
			return fmt.Sprintf("count %d is %d, oracle has %d", i, o.counts[i], oracle.counts[i])
		}
	}
	for i, v := range o.values {
		want := oracle.values[i]
		if math.Abs(v-want) > 1e-9*math.Max(math.Abs(want), 1e-300) {
			return fmt.Sprintf("value %d is %g, oracle has %g", i, v, want)
		}
	}
	return ""
}

// sequentialOracle reduces every chunk in index order on one engine
// with no clock, no stores views and no cluster: the reference every
// run's result is checked against. Iterative workloads repeat the pass
// with the same rank update the driver applies.
func (in *instance) sequentialOracle() (*outcome, error) {
	app, err := in.w.newApp(in.seed)
	if err != nil {
		return nil, err
	}
	engine := cloudburst.NewEngine(app, cloudburst.EngineOptions{GroupUnits: groupUnits})
	var red cloudburst.Reduction
	var buf []byte
	for iter := 0; iter < in.w.iterations; iter++ {
		red = app.NewReduction()
		for _, c := range in.index.Chunks {
			f := in.index.Files[c.File]
			if int64(cap(buf)) < c.Length {
				buf = make([]byte, c.Length)
			}
			buf = buf[:c.Length]
			if n, err := in.mem[f.Site].ReadAt(f.Name, buf, c.Offset); int64(n) != c.Length {
				return nil, fmt.Errorf("chunk %d: read %d of %d bytes: %v", c.ID, n, c.Length, err)
			}
			if _, err := engine.ProcessChunk(red, buf); err != nil {
				return nil, err
			}
		}
		if pr, ok := app.(*cloudburst.PageRank); ok {
			if err := pr.SetRanks(red.(cloudburst.Ranker).NextRanks()); err != nil {
				return nil, err
			}
		}
	}
	return newOutcome(app, red)
}

// trial is one measured run of a workload.
type trial struct {
	wallS     float64 // real seconds around the whole run
	makespanS float64 // emulated seconds; real ones on an instant clock, which maps none back
	costUSD   float64
	cpuS      float64 // host CPU (user+sys) the process spent meanwhile
	reports   []*cloudburst.RunReport
	digest    string
	// failure is why the run counts as failed, "" when it passed.
	failure string
}

// rusage returns the CPU seconds (user+sys) the process has spent and
// its peak resident set in MB.
func rusage() (cpuS, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes one trial and checks it. tr is nil with tracing off, in
// which case the sites get the bare store views.
func (in *instance) run(tr *tracer) *trial {
	w := in.w
	t := &trial{}
	cfg, err := in.deploy(tr.wrap)
	if err != nil {
		t.failure = err.Error()
		return t
	}
	var final cloudburst.Reduction
	cpu0, _ := rusage()
	start := time.Now()
	tr.begin(start)
	if w.iterations == 1 {
		tr.beginIter(1)
		var res *cloudburst.RunResult
		if res, err = cloudburst.Deploy(cfg); err == nil {
			t.reports, final = []*cloudburst.RunReport{res.Report}, res.Final
		}
	} else {
		var it *cloudburst.Iterative
		if it, err = cloudburst.PageRankDriver(cfg, -1); err == nil {
			it.MaxIterations = w.iterations
			it.CacheBytes, it.BufferBytes = tierBytes, tierBytes
			tr.beginIter(1)
			it.OnIteration = func(iter int, _ float64, rep *cloudburst.RunReport) {
				t.reports = append(t.reports, rep)
				tr.beginIter(iter + 1)
			}
			var res *cloudburst.IterResult
			if res, err = it.Run(); err == nil {
				final = res.Final
			}
		}
	}
	t.wallS = time.Since(start).Seconds()
	cpu1, _ := rusage()
	t.cpuS = cpu1 - cpu0
	tr.end(time.Now())
	if err != nil {
		t.failure = err.Error()
		return t
	}

	var egress, s3 int64
	for _, rep := range t.reports {
		t.makespanS += rep.TotalWall.Seconds()
		if got, want := rep.JobsProcessed(), len(in.index.Chunks); got != want {
			t.failure = fmt.Sprintf("%d jobs processed, index has %d chunks", got, want)
		}
		if w.hostpath {
			continue // loopback daemons: no S3 requests, no WAN egress
		}
		if local := rep.Cluster("local"); local != nil {
			egress += local.Workers.BytesRemote
		}
		if cloud := rep.Cluster("cloud"); cloud != nil {
			s3 += cloud.Workers.BytesRead - cloud.Workers.BytesRemote
		}
		s3 += rep.Retrieval.BufferBackingBytes - rep.Retrieval.BufferBytes
	}
	if len(t.reports) != w.iterations && t.failure == "" {
		t.failure = fmt.Sprintf("%d iterations reported, want %d", len(t.reports), w.iterations)
	}
	if !w.paced() {
		t.makespanS = t.wallS
	}
	t.costUSD = cloudCostUSD(w.cloudCores, t.makespanS, egress, s3+egress)

	got, err := newOutcome(cfg.App, final)
	if err != nil {
		t.failure = err.Error()
		return t
	}
	t.digest = got.digest
	if d := got.differs(in.oracle); d != "" && t.failure == "" {
		t.failure = d
	}
	return t
}
