package cluster

import (
	"net"
	"runtime"
	"testing"
	"time"

	"cloudburst/internal/apps"
	"cloudburst/internal/chunk"
	"cloudburst/internal/faults"
	"cloudburst/internal/gr"
	"cloudburst/internal/metrics"
	"cloudburst/internal/store"
	"cloudburst/internal/wire"
	"cloudburst/internal/workload"
)

// Fault-tolerance tests for the re-execution extension: a worker or a
// whole cluster dying mid-run must not lose data — everything it was
// granted is re-executed elsewhere, because its partial reduction
// object died with it.

// startHead spins up a head over the given fixture config.
func startHead(t *testing.T, cfg DeployConfig) (*Head, string) {
	t.Helper()
	head, err := NewHead(HeadConfig{
		App: cfg.App, Index: cfg.Index, Clusters: len(cfg.Sites), Clock: cfg.Clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	head.Serve(ln)
	return head, ln.Addr().String()
}

func TestSlaveDeathJobsReexecuted(t *testing.T) {
	cfg, gen := fixture(t, 6000, 6, 6, 1, 0) // single site, all data local
	cfg.Sites[0].Cores = 1                   // one real worker...
	head, headAddr := startHead(t, cfg)

	master, err := NewMaster(MasterConfig{
		Site: "local", App: cfg.App, Cores: 2, Slaves: 2, // ...plus one doomed worker
		Batch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	masterLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	masterDone := make(chan error, 1)
	go func() {
		_, err := master.Run(headAddr, net.Dial, masterLn)
		masterDone <- err
	}()

	// Doomed worker: register, grab jobs, die without completing them.
	raw, err := net.Dial("tcp", masterLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	doomed := wire.NewConn(raw)
	if _, err := doomed.Call(&wire.Message{Kind: wire.KindRegisterSlave, Site: "local"}); err != nil {
		t.Fatal(err)
	}
	grant, err := doomed.Call(&wire.Message{Kind: wire.KindRequestJob, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(grant.Jobs) == 0 {
		t.Fatal("doomed worker got no jobs")
	}
	doomed.Close() // dies holding its grant

	// Real slave processes everything, including the requeued jobs.
	slave, err := NewSlave(SlaveConfig{
		Site: "local", App: cfg.App, Cores: 1,
		HomeStore: cfg.Sites[0].HomeStore,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slave.Run(masterLn.Addr().String(), net.Dial); err != nil {
		t.Fatal(err)
	}
	if err := <-masterDone; err != nil {
		t.Fatal(err)
	}
	report, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, 6000))
	if got := report.JobsProcessed(); got != len(cfg.Index.Chunks) {
		t.Fatalf("jobs processed %d != %d", got, len(cfg.Index.Chunks))
	}
}

func TestMasterDeathClusterReexecuted(t *testing.T) {
	cfg, gen := fixture(t, 6000, 6, 3, 1, 1)
	head, headAddr := startHead(t, cfg)

	// Doomed master: registers as "cloud", takes a batch, dies.
	raw, err := net.Dial("tcp", headAddr)
	if err != nil {
		t.Fatal(err)
	}
	doomed := wire.NewConn(raw)
	if _, err := doomed.Call(&wire.Message{Kind: wire.KindRegisterMaster, Site: "cloud", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	grant, err := doomed.Call(&wire.Message{Kind: wire.KindRequestJobs, Site: "cloud", Max: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(grant.Jobs) == 0 {
		t.Fatal("doomed master got no jobs")
	}
	doomed.Close()

	// Surviving cluster: a real master + slave for "local". It must
	// steal and re-execute everything, including the doomed batch.
	master, err := NewMaster(MasterConfig{Site: "local", App: cfg.App, Cores: 1, Slaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	masterLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	masterDone := make(chan error, 1)
	go func() {
		_, err := master.Run(headAddr, net.Dial, masterLn)
		masterDone <- err
	}()
	slave, err := NewSlave(SlaveConfig{
		Site: "local", App: cfg.App, Cores: 1,
		HomeStore: cfg.Sites[0].HomeStore,
		RemoteStores: map[string]store.Store{
			"cloud": cfg.Sites[1].HomeStore,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Give the head a moment to notice the dead master so its batch is
	// requeued before the survivor drains the pool.
	time.Sleep(50 * time.Millisecond)
	if _, err := slave.Run(masterLn.Addr().String(), net.Dial); err != nil {
		t.Fatal(err)
	}
	if err := <-masterDone; err != nil {
		t.Fatal(err)
	}
	_, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, 6000))
}

func TestAllClustersLostFailsRun(t *testing.T) {
	cfg, _ := fixture(t, 1000, 2, 2, 1, 0)
	head, headAddr := startHead(t, cfg)

	raw, err := net.Dial("tcp", headAddr)
	if err != nil {
		t.Fatal(err)
	}
	doomed := wire.NewConn(raw)
	if _, err := doomed.Call(&wire.Message{Kind: wire.KindRegisterMaster, Site: "local", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	doomed.Close()

	_, _, err = head.Wait()
	if err == nil {
		t.Fatal("run with all clusters lost should fail")
	}
}

// TestAllSlavesLostFailsCluster drives a master whose only slave dies.
func TestAllSlavesLostFailsCluster(t *testing.T) {
	cfg, _ := fixture(t, 1000, 2, 2, 1, 0)
	_, headAddr := startHead(t, cfg)

	master, err := NewMaster(MasterConfig{Site: "local", App: cfg.App, Cores: 1, Slaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	masterLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	masterDone := make(chan error, 1)
	go func() {
		_, err := master.Run(headAddr, net.Dial, masterLn)
		masterDone <- err
	}()

	raw, err := net.Dial("tcp", masterLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	doomed := wire.NewConn(raw)
	if _, err := doomed.Call(&wire.Message{Kind: wire.KindRegisterSlave, Site: "local"}); err != nil {
		t.Fatal(err)
	}
	doomed.Close()

	select {
	case err := <-masterDone:
		if err == nil {
			t.Fatal("master with no surviving slaves should fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master did not detect total slave loss")
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack, failing the test otherwise — fault-path runs must not
// leak heartbeaters, handlers, or retry workers.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d+%d\n%s",
				runtime.NumGoroutine(), base, slack, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStalledSlaveHeartbeatReexecution is the stall-path counterpart of
// TestSlaveDeathJobsReexecuted: the doomed slave keeps its connection
// OPEN but stops responding, so crash detection via connection close
// never fires — only the heartbeat deadline can catch it.
func TestStalledSlaveHeartbeatReexecution(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	cfg, gen := fixture(t, 3000, 3, 3, 1, 0)
	head, headAddr := startHead(t, cfg)

	master, err := NewMaster(MasterConfig{
		Site: "local", App: cfg.App, Cores: 2, Slaves: 2,
		Batch: 4, HeartbeatInterval: 20 * time.Millisecond, HeartbeatMisses: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	masterLn := mustListen(t)
	masterDone := make(chan error, 1)
	go func() {
		_, err := master.Run(headAddr, net.Dial, masterLn)
		masterDone <- err
	}()

	// Stalled worker: register, grab jobs, then go silent WITHOUT
	// closing the connection.
	raw, err := net.Dial("tcp", masterLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	stalled := wire.NewConn(raw)
	defer stalled.Close()
	if _, err := stalled.Call(&wire.Message{Kind: wire.KindRegisterSlave, Site: "local"}); err != nil {
		t.Fatal(err)
	}
	grant, err := stalled.Call(&wire.Message{Kind: wire.KindRequestJob, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(grant.Jobs) == 0 {
		t.Fatal("stalled worker got no jobs")
	}
	// ... silence. Give the master time to hit the heartbeat deadline
	// (2 * 20ms) and requeue the grant before the real slave drains the
	// pool.
	time.Sleep(120 * time.Millisecond)

	slave, err := NewSlave(SlaveConfig{
		Site: "local", App: cfg.App, Cores: 1,
		HomeStore:         cfg.Sites[0].HomeStore,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slave.Run(masterLn.Addr().String(), net.Dial); err != nil {
		t.Fatal(err)
	}
	if err := <-masterDone; err != nil {
		t.Fatal(err)
	}
	report, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, 3000))
	if got := report.JobsProcessed(); got != len(cfg.Index.Chunks) {
		t.Fatalf("jobs processed %d != %d", got, len(cfg.Index.Chunks))
	}
	if report.Faults.HeartbeatMisses < 1 {
		t.Fatalf("stall not detected via heartbeat: %+v", report.Faults)
	}
	waitGoroutines(t, baseGoroutines, 4)
}

// chaosRun executes a single-site deployment under a full fault plan:
// probabilistic transient + SlowDown store faults (retried by the
// fetch layer) plus one slave that stalls mid-run holding jobs
// (recovered via heartbeat re-execution). It returns the run report,
// the final reduction, and the plan's injected-fault totals.
func chaosRun(t *testing.T, seed int64) (*metrics.RunReport, gr.Reduction, map[faults.Kind]int64) {
	t.Helper()
	cfg, _ := fixture(t, 3000, 3, 3, 1, 0)
	plan := faults.NewPlan(seed,
		faults.Spec{Kind: faults.Transient, FirstN: 2, Prob: 0.05},
		faults.Spec{Kind: faults.SlowDown, Prob: 0.05},
	)
	// The site's store becomes a faulty SimS3; HomeFetch routes all
	// reads through the retrying multi-threaded fetcher. Threads=1
	// keeps the per-object request order deterministic so injected
	// totals are reproducible across runs.
	faulty := store.NewSimS3(cfg.Sites[0].HomeStore, nil, 0, 0, nil).WithFaults(plan, "local")
	fetch := store.FetchOptions{
		Threads: 1, RangeSize: 512,
		Retry: store.RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Microsecond},
	}

	head, headAddr := startHead(t, cfg)
	master, err := NewMaster(MasterConfig{
		Site: "local", App: cfg.App, Cores: 2, Slaves: 2,
		Batch: 4, HeartbeatInterval: 15 * time.Millisecond, HeartbeatMisses: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	masterLn := mustListen(t)
	masterDone := make(chan error, 1)
	go func() {
		_, err := master.Run(headAddr, net.Dial, masterLn)
		masterDone <- err
	}()

	// The stalled slave registers, grabs jobs, and goes silent.
	raw, err := net.Dial("tcp", masterLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	stalled := wire.NewConn(raw)
	defer stalled.Close()
	if _, err := stalled.Call(&wire.Message{Kind: wire.KindRegisterSlave, Site: "local"}); err != nil {
		t.Fatal(err)
	}
	if grant, err := stalled.Call(&wire.Message{Kind: wire.KindRequestJob, Max: 3}); err != nil {
		t.Fatal(err)
	} else if len(grant.Jobs) == 0 {
		t.Fatal("stalled worker got no jobs")
	}
	time.Sleep(100 * time.Millisecond) // let the heartbeat deadline fire

	slave, err := NewSlave(SlaveConfig{
		Site: "local", App: cfg.App, Cores: 1,
		HomeStore: faulty, HomeFetch: true, Fetch: fetch,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slave.Run(masterLn.Addr().String(), net.Dial); err != nil {
		t.Fatal(err)
	}
	if err := <-masterDone; err != nil {
		t.Fatal(err)
	}
	report, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return report, final, plan.Injected()
}

// TestChaosRunCompletesCorrectAndReproducible is the acceptance
// scenario: under transient faults, SlowDown throttling, and a stalled
// slave, the run completes with a reduction identical to the
// fault-free one, records retries and a heartbeat re-execution, and
// injects the exact same fault multiset when replayed from the seed.
func TestChaosRunCompletesCorrectAndReproducible(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	gen := workload.Words{Width: 12, Vocab: 64, Seed: 31}
	want := wantCounts(gen, 3000)

	report, final, injected := chaosRun(t, 42)
	checkCounts(t, final, want)
	if report.Faults.Retries == 0 {
		t.Fatalf("no retries recorded under a fault plan: %+v", report.Faults)
	}
	if report.Faults.BackoffEmu <= 0 {
		t.Fatalf("retries without backoff time: %+v", report.Faults)
	}
	if report.Faults.HeartbeatMisses < 1 {
		t.Fatalf("stalled slave not re-executed via heartbeat: %+v", report.Faults)
	}
	if len(injected) == 0 {
		t.Fatal("plan injected nothing")
	}
	if injected[faults.Transient] < 2 {
		t.Fatalf("FirstN transient faults not injected: %v", injected)
	}

	// Replay from the same seed: identical reduction, identical
	// injected-fault multiset.
	report2, final2, injected2 := chaosRun(t, 42)
	checkCounts(t, final2, want)
	if len(injected2) != len(injected) {
		t.Fatalf("injected kinds differ: %v vs %v", injected, injected2)
	}
	for k, n := range injected {
		if injected2[k] != n {
			t.Fatalf("seed 42 not reproducible: kind %v %d vs %d", k, n, injected2[k])
		}
	}
	if report2.Faults.HeartbeatMisses < 1 {
		t.Fatalf("replay lost the stall detection: %+v", report2.Faults)
	}
	waitGoroutines(t, baseGoroutines, 4)
}

// TestFixtureAppsAgree sanity-checks the fixture across two app types.
func TestFixtureAppsAgree(t *testing.T) {
	app, err := apps.NewWordCount(apps.Params{"width": "12"})
	if err != nil {
		t.Fatal(err)
	}
	if app.RecordSize() != 12 {
		t.Fatal("fixture record size drifted")
	}
	if _, err := chunk.Build(nil, nil, chunk.BuildOptions{RecordSize: 12, ChunkBytes: 1}); err != nil {
		t.Fatal("empty build should succeed with no files")
	}
}

// TestRunRetryOnlyFetchOptionsAbsorbTransients is a deployment whose
// Fetch sets only a retry policy: the default thread and range sizes
// are filled in around it, so a FirstN transient plan on the home store
// is absorbed by sub-range retries instead of failing chunk reads.
func TestRunRetryOnlyFetchOptionsAbsorbTransients(t *testing.T) {
	cfg, gen := fixture(t, 3000, 3, 3, 2, 0)
	plan := faults.NewPlan(7, faults.Spec{Kind: faults.Transient, FirstN: 3})
	cfg.Sites[0].HomeStore = store.NewSimS3(cfg.Sites[0].HomeStore, nil, 0, 0, nil).WithFaults(plan, "local")
	cfg.Sites[0].HomeFetch = true
	cfg.Fetch = store.FetchOptions{Retry: store.DefaultRetryPolicy()}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 3000))
	if plan.Total() < 3 {
		t.Fatalf("plan injected %d transients, want 3", plan.Total())
	}
	if res.Report.Faults.Retries == 0 {
		t.Fatalf("transients not retried: %+v", res.Report.Faults)
	}
}
