package cluster

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cloudburst/internal/store"
)

// TestRunPrefetchMatchesBaseline: the pipeline is an optimization, not
// a semantics change — final objects, digests, and job accounting must
// be identical with and without it.
func TestRunPrefetchMatchesBaseline(t *testing.T) {
	base, gen := fixture(t, 8000, 8, 4, 3, 3)
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	pf, _ := fixture(t, 8000, 8, 4, 3, 3)
	pf.Prefetch = true
	pfRes, err := Run(pf)
	if err != nil {
		t.Fatal(err)
	}

	want := wantCounts(gen, 8000)
	checkCounts(t, baseRes.Final, want)
	checkCounts(t, pfRes.Final, want)
	if baseRes.Report.FinalResult != pfRes.Report.FinalResult {
		t.Fatalf("digest changed under prefetch:\n base %s\n  pf  %s",
			baseRes.Report.FinalResult, pfRes.Report.FinalResult)
	}
	if baseRes.Report.JobsProcessed() != pfRes.Report.JobsProcessed() {
		t.Fatalf("job counts diverged: %d vs %d",
			baseRes.Report.JobsProcessed(), pfRes.Report.JobsProcessed())
	}
	if pfRes.Report.Retrieval.PrefetchedJobs == 0 {
		t.Fatal("prefetch run recorded no prefetched jobs")
	}
	if baseRes.Report.Retrieval.PrefetchedJobs != 0 {
		t.Fatal("baseline run recorded prefetched jobs")
	}
}

// TestRunPrefetchBudgetDeniesAndDegrades: an exhausted byte budget must
// downgrade prefetches to on-demand fetches, never break the run.
func TestRunPrefetchBudgetDeniesAndDegrades(t *testing.T) {
	cfg, gen := fixture(t, 4000, 4, 2, 2, 2)
	cfg.Prefetch = true
	cfg.PrefetchBudget = 1 // below any chunk size: every prefetch denied
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 4000))
	r := res.Report.Retrieval
	if r.PrefetchSkips == 0 {
		t.Fatalf("no budget denials recorded: %+v", r)
	}
	if r.PrefetchedJobs != 0 {
		t.Fatalf("prefetches admitted past a 1-byte budget: %+v", r)
	}
}

// TestRunCacheInvariance: caching must not change results; within one
// pass every chunk is granted once, so the cache records only misses.
func TestRunCacheInvariance(t *testing.T) {
	base, gen := fixture(t, 6000, 6, 3, 2, 2)
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	cached, _ := fixture(t, 6000, 6, 3, 2, 2)
	cached.CacheBytes = 32 << 20
	cachedRes, err := Run(cached)
	if err != nil {
		t.Fatal(err)
	}

	want := wantCounts(gen, 6000)
	checkCounts(t, baseRes.Final, want)
	checkCounts(t, cachedRes.Final, want)
	if baseRes.Report.FinalResult != cachedRes.Report.FinalResult {
		t.Fatal("digest changed under caching")
	}
	r := cachedRes.Report.Retrieval
	if r.CacheMisses == 0 {
		t.Fatalf("cache saw no traffic: %+v", r)
	}
	if r.CacheHits != 0 {
		t.Fatalf("single-pass run cannot have cache hits: %+v", r)
	}
	if baseRes.Report.Retrieval.CacheMisses != 0 {
		t.Fatal("cache-off run recorded cache traffic")
	}
}

// TestRunPrefetchWithCacheAndBothTogether exercises the remaining
// ablation corners through the full deployment.
func TestRunPrefetchWithCacheTogether(t *testing.T) {
	cfg, gen := fixture(t, 4000, 4, 2, 2, 2)
	cfg.Prefetch = true
	cfg.CacheBytes = 16 << 20
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 4000))
	r := res.Report.Retrieval
	if r.PrefetchedJobs == 0 || r.CacheMisses == 0 {
		t.Fatalf("combined run missing pipeline counters: %+v", r)
	}
	if r.PoolGets == 0 {
		t.Fatalf("pooled fetches not counted: %+v", r)
	}
}

// failAfterReads serves n reads then fails everything, from any
// goroutine.
type failAfterReads struct {
	store.Store
	left atomic.Int64
}

func (f *failAfterReads) ReadAt(name string, p []byte, off int64) (int, error) {
	if f.left.Add(-1) < 0 {
		return 0, errors.New("store went away")
	}
	return f.Store.ReadAt(name, p, off)
}

// TestRunPrefetchErrorPropagatesCleanly: a retrieval failure while the
// pipeline has a grant in flight must surface the error — not hang the
// worker waiting on its prefetch goroutine or leak budget bytes.
func TestRunPrefetchErrorPropagatesCleanly(t *testing.T) {
	cfg, _ := fixture(t, 8000, 8, 4, 2, 2)
	for i := range cfg.Sites {
		site := &cfg.Sites[i]
		failing := &failAfterReads{Store: site.HomeStore}
		failing.left.Store(3)
		site.HomeStore = failing
	}
	cfg.Prefetch = true
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run with a dying store must fail")
	}
	// Which error wins the race to the head varies (the worker's
	// retrieval error vs. the head noticing the cluster vanish); what
	// matters is that the run fails promptly instead of deadlocking on
	// the in-flight prefetch.
	if !strings.Contains(err.Error(), "job") && !strings.Contains(err.Error(), "lost") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

// TestSlavePrefetchReleasesBudgetOnError drives a 2-core slave directly
// against a master and checks the shared byte budget is made whole
// after a mid-run retrieval failure: every error exit releases what
// prefetch acquired, including a grant still in flight when the
// foreground fails.
func TestSlavePrefetchReleasesBudgetOnError(t *testing.T) {
	cfg, _ := fixture(t, 8000, 8, 4, 2, 0)
	site := cfg.Sites[0]
	failing := &failAfterReads{Store: site.HomeStore}
	failing.left.Store(2)
	_, headAddr := startHead(t, cfg)
	_, masterAddr, _ := startMaster(t, cfg, headAddr, 2)
	const budget = 1 << 20
	sl, err := NewSlave(SlaveConfig{
		Site: site.Name, App: cfg.App, Cores: 2,
		HomeStore: failing, RemoteStores: site.RemoteStores,
		Prefetch: true, PrefetchBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sl.Run(masterAddr, dialTCP); err == nil {
		t.Fatal("expected failure")
	}
	if got := sl.budget.avail; got != budget {
		t.Fatalf("prefetch budget leaked: %d of %d bytes available", got, budget)
	}
}

// gatedReads holds the first read until open is closed, serves the
// second, and fails every read from the third on, closing failing when
// the third arrives.
type gatedReads struct {
	store.Store
	reads   atomic.Int64
	open    chan struct{}
	failing chan struct{}
}

func (g *gatedReads) ReadAt(name string, p []byte, off int64) (int, error) {
	n := g.reads.Add(1)
	if n == 1 {
		<-g.open
	}
	if n == 3 {
		close(g.failing)
	}
	if n >= 3 {
		return 0, errors.New("store went away")
	}
	return g.Store.ReadAt(name, p, off)
}

// TestPreemptDrainReleasesFailedPrefetch: a spot warning that finds the
// in-flight prefetch failed must still release the chunks that prefetch
// did fetch. The foreground's first read is held while the prefetch
// goroutine fetches the next grant (one chunk lands, the next read
// fails); the warning then lands before the foreground reaches its
// second job, so the preempt drain is what settles the failed grant.
func TestPreemptDrainReleasesFailedPrefetch(t *testing.T) {
	cfg, _ := fixture(t, 4000, 4, 4, 1, 0)
	home := &gatedReads{Store: cfg.Sites[0].HomeStore,
		open: make(chan struct{}), failing: make(chan struct{})}
	_, headAddr := startHead(t, cfg)
	_, masterAddr, _ := startMaster(t, cfg, headAddr, 1)
	const budget = 1 << 20
	sl, err := NewSlave(SlaveConfig{
		Site: "local", App: cfg.App, Cores: 1, HomeStore: home,
		Prefetch: true, PrefetchBudget: budget, JobsPerRequest: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := sl.Run(masterAddr, dialTCP); done <- err }()
	<-home.failing
	sl.PreemptWarn(time.Second)
	close(home.open)
	if err := <-done; err == nil {
		t.Fatal("worker with a failed prefetch must fail")
	}
	if got := sl.budget.avail; got != budget {
		t.Fatalf("prefetch budget leaked: %d of %d bytes available", got, budget)
	}
}

func TestByteBudgetAccounting(t *testing.T) {
	b := &byteBudget{avail: 100}
	if !b.tryAcquire(60) || !b.tryAcquire(40) {
		t.Fatal("acquires within budget denied")
	}
	if b.tryAcquire(1) {
		t.Fatal("over-budget acquire admitted")
	}
	b.release(40)
	if !b.tryAcquire(30) {
		t.Fatal("released bytes not reusable")
	}
	var nilBudget *byteBudget
	if !nilBudget.tryAcquire(1 << 40) {
		t.Fatal("nil budget must be unlimited")
	}
	nilBudget.release(1) // must not panic
}
