package cluster

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudburst/internal/apps"
	"cloudburst/internal/chunk"
	"cloudburst/internal/gr"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
	"cloudburst/internal/workload"
)

// fixture materializes a word-count data set split across two sites
// and returns a ready-to-run deployment config.
func fixture(t *testing.T, records int64, files, localFiles, coresLocal, coresCloud int) (DeployConfig, workload.Words) {
	t.Helper()
	gen := workload.Words{Width: 12, Vocab: 64, Seed: 31}
	app, err := apps.NewWordCount(apps.Params{"width": "12"})
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]*store.Mem{"local": store.NewMem(), "cloud": store.NewMem()}
	metas, err := workload.Materialize(gen, workload.Spec{
		Records: records, Files: files, LocalFiles: localFiles,
	}, stores)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := chunk.Build(map[string]store.Store{"local": stores["local"], "cloud": stores["cloud"]},
		metas, chunk.BuildOptions{RecordSize: 12, ChunkBytes: 12 * 64})
	if err != nil {
		t.Fatal(err)
	}

	cfg := DeployConfig{
		App:   app,
		Index: idx,
		Sites: []SiteSpec{
			{
				Name: "local", Cores: coresLocal, HomeStore: stores["local"],
				RemoteStores: map[string]store.Store{"cloud": stores["cloud"]},
			},
			{
				Name: "cloud", Cores: coresCloud, HomeStore: stores["cloud"],
				RemoteStores: map[string]store.Store{"local": stores["local"]},
			},
		},
	}
	if coresLocal == 0 {
		cfg.Sites = cfg.Sites[1:]
	} else if coresCloud == 0 {
		cfg.Sites = cfg.Sites[:1]
	}
	return cfg, gen
}

// wantCounts computes the reference word histogram.
func wantCounts(gen workload.Words, records int64) map[string]int64 {
	want := make(map[string]int64)
	for i := int64(0); i < records; i++ {
		want[gen.Word(gen.WordAt(i))]++
	}
	return want
}

func checkCounts(t *testing.T, final gr.Reduction, want map[string]int64) {
	t.Helper()
	type counter interface{ Counts() map[string]int64 }
	got := final.(counter).Counts()
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Fatalf("word %q: got %d want %d", w, got[w], c)
		}
	}
}

func TestRunSingleSite(t *testing.T) {
	cfg, gen := fixture(t, 4000, 4, 4, 4, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 4000))
	if got := res.Report.JobsProcessed(); got != len(cfg.Index.Chunks) {
		t.Fatalf("jobs processed %d != %d chunks", got, len(cfg.Index.Chunks))
	}
	if res.Report.FinalResult == "" {
		t.Fatal("missing final result digest")
	}
}

func TestRunTwoSitesEvenSplit(t *testing.T) {
	cfg, gen := fixture(t, 8000, 8, 4, 3, 3)
	paceCompute(t, &cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 8000))
	// Both clusters processed something.
	for _, site := range []string{"local", "cloud"} {
		c := res.Report.Cluster(site)
		if c == nil || c.Workers.JobsProcessed == 0 {
			t.Fatalf("cluster %s processed nothing: %+v", site, c)
		}
	}
	total := res.Report.Cluster("local").Workers.JobsProcessed +
		res.Report.Cluster("cloud").Workers.JobsProcessed
	if total != len(cfg.Index.Chunks) {
		t.Fatalf("job conservation: %d != %d", total, len(cfg.Index.Chunks))
	}
}

func TestRunSkewedDistributionSteals(t *testing.T) {
	// 1 of 8 files local (12.5%): the local cluster must steal from
	// the cloud to balance (paper Table I, env-17/83 behaviour).
	cfg, gen := fixture(t, 16_000, 8, 1, 4, 4)
	paceCompute(t, &cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 16_000))
	local := res.Report.Cluster("local").Workers
	if local.JobsStolen == 0 {
		t.Fatalf("local cluster stole nothing despite 12.5%% local data: %+v", local)
	}
	if local.BytesRemote == 0 {
		t.Fatal("stolen jobs should count remote bytes")
	}
	// Work stealing balances: both clusters should process a
	// non-trivial share.
	cloud := res.Report.Cluster("cloud").Workers
	if local.JobsProcessed < len(cfg.Index.Chunks)/5 {
		t.Fatalf("local processed only %d of %d", local.JobsProcessed, len(cfg.Index.Chunks))
	}
	if cloud.JobsProcessed < len(cfg.Index.Chunks)/5 {
		t.Fatalf("cloud processed only %d of %d", cloud.JobsProcessed, len(cfg.Index.Chunks))
	}
}

func TestRunAllDataRemote(t *testing.T) {
	// Paper Fig. 4 setting: all data in the cloud store, both clusters
	// compute. The local cluster's jobs are all stolen.
	cfg, gen := fixture(t, 6000, 6, 0, 2, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 6000))
	local := res.Report.Cluster("local").Workers
	if local.JobsProcessed != local.JobsStolen {
		t.Fatalf("every local job should be stolen: %+v", local)
	}
}

func TestRunPerSiteFinalAgrees(t *testing.T) {
	cfg, gen := fixture(t, 3000, 3, 2, 2, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := wantCounts(gen, 3000)
	for site, final := range res.PerSiteFinal {
		t.Run(site, func(t *testing.T) { checkCounts(t, final, want) })
	}
}

func TestRunKNNEndToEnd(t *testing.T) {
	// A second application through the full stack: knn results must
	// equal a sequential reference reduction.
	app, err := apps.NewKNN(apps.Params{"k": "50", "dims": "2"})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Points{Dims: 2, Seed: 77, WithID: true}
	res, err := Run(twoSiteConfig(t, app, gen, 8000))
	if err != nil {
		t.Fatal(err)
	}

	// Sequential reference.
	data := make([]byte, 8000*app.RecordSize())
	for i := int64(0); i < 8000; i++ {
		gen.Gen(i, data[i*int64(app.RecordSize()):(i+1)*int64(app.RecordSize())])
	}
	ref := app.NewReduction()
	engine := gr.NewEngine(app, gr.EngineOptions{})
	if _, err := engine.ProcessChunk(ref, data); err != nil {
		t.Fatal(err)
	}
	refSummary, _ := app.Summarize(ref)
	gotSummary, _ := app.Summarize(res.Final)
	if refSummary != gotSummary {
		t.Fatalf("knn result mismatch:\n got %s\nwant %s", gotSummary, refSummary)
	}
}

func TestRunWithShapedLinksAndPacing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// A fast but real timing run: scaled clock, shaped links. Checks
	// that the time breakdowns come out non-zero and consistent.
	cfg, gen := fixture(t, 4000, 4, 2, 2, 2)
	clk := netsim.Scaled(0.002)
	cfg.Clock = clk
	wan := netsim.Link{Name: "wan", Latency: 20 * time.Millisecond, PerStream: 8 << 20, Aggregate: 32 << 20}
	lan := netsim.Link{Name: "lan", Latency: time.Millisecond, PerStream: 200 << 20}
	for i := range cfg.Sites {
		cfg.Sites[i].HeadLink = wan
		cfg.Sites[i].SlaveLink = lan
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 4000))
	if res.Report.TotalWall <= 0 {
		t.Fatal("no emulated wall time recorded")
	}
	for _, c := range res.Report.Clusters {
		if c.Workers.Sync <= 0 {
			t.Fatalf("cluster %s recorded no sync time", c.Site)
		}
	}
}

func TestHeadRejectsBadConfig(t *testing.T) {
	if _, err := NewHead(HeadConfig{}); err == nil {
		t.Fatal("empty head config accepted")
	}
	if _, err := NewMaster(MasterConfig{}); err == nil {
		t.Fatal("empty master config accepted")
	}
	if _, err := NewSlave(SlaveConfig{}); err == nil {
		t.Fatal("empty slave config accepted")
	}
	if _, err := Run(DeployConfig{}); err == nil {
		t.Fatal("empty deploy config accepted")
	}
}

// TestRunBuildErrorStartsNothing: when a later site cannot be built,
// Run fails without leaving the earlier sites' masters and slaves
// running — the goroutine count settles back to where it started.
func TestRunBuildErrorStartsNothing(t *testing.T) {
	cfg, _ := fixture(t, 400, 2, 1, 2, 1)
	cfg.Sites[1].HomeStore = nil
	before := runtime.NumGoroutine()
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "home store") {
		t.Fatalf("Run = %v, want the missing home store", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after the failed build, %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunReportIdleAndGlobalRed(t *testing.T) {
	cfg, _ := fixture(t, 4000, 4, 2, 2, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one cluster has zero idle (the last to finish).
	zeros := 0
	for _, c := range res.Report.Clusters {
		if c.IdleAtEnd == 0 {
			zeros++
		}
		if c.IdleAtEnd < 0 {
			t.Fatalf("negative idle for %s", c.Site)
		}
	}
	if zeros < 1 {
		t.Fatal("no cluster with zero idle")
	}
	if res.Report.GlobalRed < 0 {
		t.Fatal("negative global reduction time")
	}
	if !strings.Contains(res.Report.FinalResult, "wordcount") {
		t.Fatalf("summary = %q", res.Report.FinalResult)
	}
}

// paceCompute gives every record a small paced cost, so a run lasts
// tens of real milliseconds and which cluster works on what is decided
// by the load balancer, not by which master's goroutines the host
// happened to schedule first (on the instant clock one cluster can
// drain the whole pool before the other is granted its first job).
func paceCompute(t *testing.T, cfg *DeployConfig) {
	t.Helper()
	cfg.Clock = netsim.Scaled(0.01)
	setAppCost(t, cfg, "2ms")
}

// newFixtureApp rebuilds the fixture's wordcount app with an explicit
// per-unit cost.
func newFixtureApp(cost string) (gr.App, error) {
	return apps.NewWordCount(apps.Params{"width": "12", "cost": cost})
}

// mustListen opens a loopback listener or fails the test.
func mustListen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// dialTCP adapts net.Dial for store.Dialer parameters.
func dialTCP(network, addr string) (net.Conn, error) { return net.Dial(network, addr) }
