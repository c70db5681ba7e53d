package bench

import (
	"fmt"
	"sync"
	"time"

	"cloudburst/internal/apps"
	"cloudburst/internal/chunk"
	"cloudburst/internal/cluster"
	"cloudburst/internal/faults"
	"cloudburst/internal/gr"
	"cloudburst/internal/metrics"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
	"cloudburst/internal/workload"
)

// Dataset is a materialized workload: the file contents, independent
// of where the files are later placed. Building the bytes once lets a
// sweep over data distributions reuse them.
type Dataset struct {
	Spec       AppSpec
	RecordSize int
	Records    int64
	Names      []string
	Files      [][]byte
}

// GeneratorFor picks the deterministic generator matching an
// instantiated application. records is the requested record count;
// the returned count may differ (pagerank's edge count follows from
// its graph parameters).
func GeneratorFor(app gr.App, records int64) (workload.Generator, int64, error) {
	switch a := app.(type) {
	case *apps.KNN:
		return workload.Points{Dims: a.Dims, Seed: 1001, WithID: true}, records, nil
	case *apps.KMeans:
		return workload.Points{Dims: a.Dims, Seed: 2002}, records, nil
	case *apps.PageRank:
		return a.Graph, a.Graph.TotalEdges(), nil
	case *apps.WordCount:
		return workload.Words{Width: a.Width, Vocab: 5000, Seed: 3003}, records, nil
	default:
		return nil, 0, fmt.Errorf("bench: no generator for app %T", app)
	}
}

// BuildDataset instantiates the app and materializes its data set.
func BuildDataset(spec AppSpec) (*Dataset, error) {
	spec = spec.withDefaults()
	app, err := gr.New(spec.Name, spec.Params)
	if err != nil {
		return nil, err
	}
	gen, records, err := GeneratorFor(app, spec.Records)
	if err != nil {
		return nil, err
	}
	if records < int64(spec.Files) {
		return nil, fmt.Errorf("bench: %d records over %d files", records, spec.Files)
	}
	rs := int64(gen.RecordSize())
	if gen.RecordSize() != app.RecordSize() {
		return nil, fmt.Errorf("bench: generator record size %d != app %d", gen.RecordSize(), app.RecordSize())
	}
	d := &Dataset{Spec: spec, RecordSize: int(rs), Records: records}
	per := records / int64(spec.Files)
	extra := records % int64(spec.Files)
	var next int64
	for f := 0; f < spec.Files; f++ {
		n := per
		if int64(f) < extra {
			n++
		}
		buf := make([]byte, n*rs)
		workload.GenInto(gen, next, buf)
		next += n
		d.Files = append(d.Files, buf)
		d.Names = append(d.Names, fmt.Sprintf("%s-%02d.bin", spec.Name, f))
	}
	return d, nil
}

// datasetCache memoizes materialized datasets across runs of a sweep.
var datasetCache struct {
	mu sync.Mutex
	m  map[string]*Dataset
}

// CachedDataset returns (building if needed) the dataset for spec.
func CachedDataset(spec AppSpec) (*Dataset, error) {
	spec = spec.withDefaults()
	key := fmt.Sprintf("%s|%v|%d|%d", spec.Name, spec.Params, spec.Records, spec.Files)
	datasetCache.mu.Lock()
	defer datasetCache.mu.Unlock()
	if datasetCache.m == nil {
		datasetCache.m = make(map[string]*Dataset)
	}
	if d, ok := datasetCache.m[key]; ok {
		return d, nil
	}
	d, err := BuildDataset(spec)
	if err != nil {
		return nil, err
	}
	datasetCache.m[key] = d
	return d, nil
}

// ChaosParams turns a run into a chaos scenario: every S3-backed
// store view consults a seeded fault plan, slaves retry transient
// failures with capped exponential backoff, and heartbeats detect
// stalled peers. The local storage node stays fault-free — the faults
// model object-store flakiness (throttles, dropped connections), not
// disk corruption.
type ChaosParams struct {
	// Seed makes the injected fault sequence reproducible.
	Seed int64
	// TransientProb / SlowDownProb are per-request fault probabilities
	// on the S3 views, applied after FirstN guaranteed transients.
	TransientProb float64
	SlowDownProb  float64
	// FirstN fires that many transient faults up front per (site,
	// object), so even tiny runs see injection.
	FirstN int
	// Heartbeat is the liveness interval (wall time; zero disables
	// stall detection); Misses silent intervals declare a peer lost
	// (default 3).
	Heartbeat time.Duration
	Misses    int
	// Retry overrides the retrieval retry policy; the zero value uses
	// DefaultRetryPolicy seeded from Seed.
	Retry store.RetryPolicy
}

// DefaultChaos returns a moderate chaos configuration: a few
// guaranteed transients, 2% transient and 2% throttle probability,
// and 50 ms heartbeats.
func DefaultChaos(seed int64) ChaosParams {
	return ChaosParams{
		Seed:          seed,
		TransientProb: 0.02,
		SlowDownProb:  0.02,
		FirstN:        4,
		Heartbeat:     50 * time.Millisecond,
	}
}

// plan builds the seeded fault plan the S3 views consult.
func (p ChaosParams) plan() *faults.Plan {
	return faults.NewPlan(p.Seed,
		faults.Spec{Kind: faults.Transient, FirstN: p.FirstN, Prob: p.TransientProb},
		faults.Spec{Kind: faults.SlowDown, Prob: p.SlowDownProb},
	)
}

// retry resolves the retrieval retry policy.
func (p ChaosParams) retry() store.RetryPolicy {
	if p.Retry.Enabled() {
		return p.Retry
	}
	r := store.DefaultRetryPolicy()
	r.Seed = uint64(p.Seed)
	return r
}

// RunConfig describes one experiment run.
type RunConfig struct {
	Spec AppSpec
	// Dataset reuses a prebuilt data set; nil builds (and caches) one.
	Dataset *Dataset
	// LocalPct is the percentage of files stored at the local site
	// (100 = all local; the paper's env-33/67 stores 33% locally).
	LocalPct int
	// LocalCores / CloudCores are the virtual core counts; a zero
	// count omits that cluster entirely (env-local / env-cloud).
	LocalCores int
	CloudCores int
	Sim        SimParams
	// CloudJitter spreads cloud core speeds by ±CloudJitter, modeling
	// EC2 performance variability.
	CloudJitter float64
	// Chaos, when set, injects faults into the run (see ChaosParams).
	Chaos *ChaosParams
	// Deploy carries the middleware knobs (assignment, batching,
	// prefetch, caches, buffer, elastic control, revocations,
	// checkpoints, sync mode, logging) through to the deployment;
	// BuildDeploy fills in App, Index, Sites, Clock, Fetch, GroupUnits
	// and the chaos heartbeat.
	Deploy cluster.DeployConfig
}

// EnvResult is one configuration's outcome.
type EnvResult struct {
	Env        string
	App        string
	LocalCores int
	CloudCores int
	Report     *metrics.RunReport
}

// Deployment is everything BuildDeploy derives from a RunConfig:
// the cluster deployment ready for cluster.Run (or an iterative
// driver), plus the fault plan behind its S3 views for reporting.
type Deployment struct {
	Deploy cluster.DeployConfig
	Plan   *faults.Plan
}

// BuildDeploy assembles the full middleware stack for one
// configuration — workload placement, index generation, shaped store
// views, site specs — without running it. Execute feeds the result to
// cluster.Run; iterative experiments hand it to a driver instead so
// one placement serves many passes.
func BuildDeploy(cfg RunConfig) (*Deployment, error) {
	spec := cfg.Spec.withDefaults()
	if cfg.LocalCores == 0 && cfg.CloudCores == 0 {
		return nil, fmt.Errorf("bench: no cores configured")
	}
	d := cfg.Dataset
	if d == nil {
		var err error
		if d, err = CachedDataset(spec); err != nil {
			return nil, err
		}
	}
	app, err := gr.New(spec.Name, spec.Params)
	if err != nil {
		return nil, err
	}

	scale := cfg.Sim.Scale
	if spec.Scale > 0 && !cfg.Sim.ScaleForced {
		scale = spec.Scale
	}
	clk := netsim.Scaled(scale)

	// Stores: the local storage node and the simulated S3 service,
	// each a Service whose views share the site's egress budget.
	localSvc := store.NewService(clk, cfg.Sim.LocalEgress)
	s3Svc := store.NewService(clk, cfg.Sim.S3Egress)

	localFiles := (len(d.Files)*cfg.LocalPct + 50) / 100
	if cfg.LocalCores == 0 {
		localFiles = 0 // env-cloud stores everything in S3
	}
	if cfg.CloudCores == 0 {
		localFiles = len(d.Files) // env-local stores everything locally
	}
	var metas []chunk.FileMeta
	for f, buf := range d.Files {
		site := "cloud"
		svc := s3Svc
		if f < localFiles {
			site = "local"
			svc = localSvc
		}
		svc.Objects.Put(d.Names[f], buf)
		metas = append(metas, chunk.FileMeta{Name: d.Names[f], Site: site, Size: int64(len(buf))})
	}

	// Chunk size targeting spec.Jobs total jobs.
	totalBytes := int64(0)
	for _, buf := range d.Files {
		totalBytes += int64(len(buf))
	}
	chunkBytes := totalBytes / int64(spec.Jobs)
	chunkBytes -= chunkBytes % int64(d.RecordSize)
	if chunkBytes < int64(d.RecordSize) {
		chunkBytes = int64(d.RecordSize)
	}
	stores := map[string]store.Store{"local": localSvc.Objects, "cloud": s3Svc.Objects}
	idx, err := chunk.Build(stores, metas, chunk.BuildOptions{
		RecordSize: int32(d.RecordSize), ChunkBytes: chunkBytes,
	})
	if err != nil {
		return nil, err
	}

	// Chaos runs inject faults into every S3-backed view (the paths
	// that model a flaky object store) and enable retries + liveness.
	var plan *faults.Plan
	deploy := cfg.Deploy
	deploy.Fetch = store.FetchOptions{
		Threads: cfg.Sim.FetchThreads, RangeSize: cfg.Sim.FetchRange,
	}
	if cfg.Chaos != nil {
		plan = cfg.Chaos.plan()
		deploy.Fetch.Retry = cfg.Chaos.retry()
		deploy.HeartbeatInterval = cfg.Chaos.Heartbeat
		deploy.HeartbeatMisses = cfg.Chaos.Misses
	}

	var sites []cluster.SiteSpec
	if cfg.LocalCores > 0 {
		sites = append(sites, cluster.SiteSpec{
			Name:  "local",
			Cores: cfg.LocalCores,
			// The local cluster reads its storage node per-stream
			// bound; stolen jobs cross to S3 over the WAN.
			HomeStore: localSvc.View(cfg.Sim.LocalDisk).WithSeekPenalty(cfg.Sim.LocalSeek),
			RemoteStores: map[string]store.Store{
				"cloud": s3Svc.View(cfg.Sim.S3External).WithFaults(plan, "local"),
			},
			HeadLink:  cfg.Sim.HeadLAN,
			SlaveLink: cfg.Sim.SlaveLAN,
		})
	}
	if cfg.CloudCores > 0 {
		scale := cfg.Sim.CloudCostScale
		if spec.CloudCostScale > 0 {
			scale = spec.CloudCostScale
		}
		sites = append(sites, cluster.SiteSpec{
			Name:  "cloud",
			Cores: cfg.CloudCores,
			// EC2 reads S3 with concurrent range requests even for its
			// own jobs; stolen jobs pull from the local storage node
			// across the WAN.
			HomeStore: s3Svc.View(cfg.Sim.S3Internal).WithFaults(plan, "cloud"),
			HomeFetch: true,
			RemoteStores: map[string]store.Store{
				"local": localSvc.View(cfg.Sim.LocalFromCloud),
			},
			HeadLink:      cfg.Sim.HeadWAN,
			SlaveLink:     cfg.Sim.SlaveLAN,
			UnitCostScale: scale,
			CostJitter:    cfg.CloudJitter,
		})
	}

	deploy.App, deploy.Index, deploy.Sites, deploy.Clock = app, idx, sites, clk
	deploy.GroupUnits = cfg.Sim.GroupUnits
	return &Deployment{Deploy: deploy, Plan: plan}, nil
}

// Execute runs one configuration through the full middleware stack:
// workload placement, index generation, head/master/slave deployment
// over shaped loopback links, and global reduction.
func Execute(cfg RunConfig) (*EnvResult, error) {
	dep, err := BuildDeploy(cfg)
	if err != nil {
		return nil, err
	}
	res, err := cluster.Run(dep.Deploy)
	if err != nil {
		return nil, err
	}
	res.Report.Env = envName(cfg)
	if dep.Plan != nil {
		res.Report.Faults.Injected = dep.Plan.Total()
	}
	return &EnvResult{
		Env: res.Report.Env, App: cfg.Spec.withDefaults().Name,
		LocalCores: cfg.LocalCores, CloudCores: cfg.CloudCores,
		Report: res.Report,
	}, nil
}

func envName(cfg RunConfig) string {
	switch {
	case cfg.CloudCores == 0:
		return "env-local"
	case cfg.LocalCores == 0:
		return "env-cloud"
	default:
		return fmt.Sprintf("env-%d/%d", cfg.LocalPct, 100-cfg.LocalPct)
	}
}
