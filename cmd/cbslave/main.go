// Command cbslave runs one slave node: its cores connect to the
// cluster's master, retrieve assigned chunks (sequential reads from
// the local data directory; multi-threaded ranged retrieval from
// remote cbstore endpoints for stolen jobs), run local reduction, and
// ship their reduction objects.
//
//	cbslave -site local -master masterhost:7071 -cores 8 \
//	        -app knn -params k=1000,dims=3 \
//	        -data-dir ./data/local -remote cloud=cloudhost:7075
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	_ "cloudburst/internal/apps" // register built-in applications
	"cloudburst/internal/cli"
	"cloudburst/internal/cluster"
	"cloudburst/internal/gr"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
)

func main() {
	var (
		site       = flag.String("site", "", "this slave's site name (required)")
		masterAddr = flag.String("master", "", "master address (required)")
		cores      = flag.Int("cores", 1, "worker goroutines (virtual cores)")
		appName    = flag.String("app", "", "application name (required)")
		params     = flag.String("params", "", "application parameters")
		dataDir    = flag.String("data-dir", "", "directory holding this site's data files (required)")
		remotes    = flag.String("remote", "", "remote stores, site=host:port,...")
		threads    = flag.Int("fetch-threads", 8, "retrieval threads for remote chunks")
		autotune   = flag.Bool("fetch-autotune", false, "adapt the retrieval thread count per link with an AIMD controller (-fetch-threads seeds it)")
		rangeKB    = flag.Int("fetch-range-kb", 256, "largest remote request (KiB)")
		retries    = flag.Int("fetch-retries", 4, "attempts per sub-range before a retrieval fails (1 disables retry)")
		beat       = flag.Duration("heartbeat", 0, "heartbeat the master at this interval (0 disables)")
		prefetch   = flag.Bool("prefetch", false, "pipeline retrieval: fetch the next grant while the current one reduces")
		budgetMB   = flag.Int64("prefetch-budget-mb", 0, "cap on in-flight prefetched data (0 = default 64 MiB, negative = unlimited)")
		cacheMB    = flag.Int64("cache-mb", 0, "chunk cache size (0 disables; useful for re-running over the same data)")
		homeFetch  = flag.Bool("home-fetch", false, "use multi-threaded ranged retrieval for home data (the site's data lives in an object store)")
		bufferAddr = flag.String("buffer", "", "site burst-buffer address (a cbstore -mode buffer daemon) consulted before the home store; needs -home-fetch")
		join       = flag.Bool("join", false, "join a running cluster mid-run (elastic scale-up) instead of counting against the deploy-time membership")
		ckptJobs   = flag.Int("checkpoint-jobs", 0, "ship a partial-reduction checkpoint to the master every N processed jobs (0 disables; bounds work lost to spot revocation)")
		syncMode   = flag.String("sync-mode", "", "global-reduction sync: streamed-parallel (default) or monolithic (must match the master's)")
	)
	flag.Parse()
	if *site == "" || *masterAddr == "" || *appName == "" || *dataDir == "" {
		fatal(fmt.Errorf("-site, -master, -app, and -data-dir are required"))
	}

	p, err := cli.ParseParams(*params)
	if err != nil {
		fatal(err)
	}
	app, err := gr.New(*appName, p)
	if err != nil {
		fatal(err)
	}
	addrs, err := cli.ParseSiteAddrs(*remotes)
	if err != nil {
		fatal(err)
	}
	remoteStores := make(map[string]store.Store, len(addrs))
	for s, addr := range addrs {
		c := store.NewClient(addr, nil)
		defer c.Close()
		remoteStores[s] = c
	}
	home := store.NewLocal(*dataDir)
	defer home.Close()

	retry := store.DefaultRetryPolicy()
	retry.MaxAttempts = *retries
	var cache *store.ChunkCache
	if *cacheMB > 0 {
		cache = store.NewChunkCache(*cacheMB<<20, store.NewBufferPool())
	}
	budget := *budgetMB
	if budget > 0 {
		budget <<= 20
	}
	slaveCfg := cluster.SlaveConfig{
		Site: *site, App: app, Cores: *cores,
		HomeStore: home, RemoteStores: remoteStores,
		Fetch: store.FetchOptions{
			Threads: *threads, RangeSize: *rangeKB << 10, Retry: retry,
		},
		FetchAutotune: *autotune,
		HomeFetch:     *homeFetch,
		Prefetch:      *prefetch, PrefetchBudget: budget,
		Cache:             cache,
		CheckpointJobs:    *ckptJobs,
		HeartbeatInterval: *beat,
		Join:              *join,
		Clock:             netsim.Real(),
		SyncMode:          *syncMode,
	}
	if *bufferAddr != "" {
		if !*homeFetch {
			fatal(fmt.Errorf("-buffer needs -home-fetch (the buffer fronts an object-store home)"))
		}
		bc := store.NewClient(*bufferAddr, nil)
		defer bc.Close()
		slaveCfg.Buffer = bc
	}
	slave, err := cluster.NewSlave(slaveCfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cbslave: site %s, %d cores, app %s, master %s\n", *site, *cores, *appName, *masterAddr)
	stats, err := slave.Run(*masterAddr, net.Dial)
	if err != nil {
		fatal(err)
	}
	s := stats.Snapshot()
	fmt.Printf("cbslave: done: jobs=%d stolen=%d units=%d proc=%v retr=%v sync=%v\n",
		s.JobsProcessed, s.JobsStolen, s.UnitsReduced,
		s.Processing.Round(time.Millisecond), s.Retrieval.Round(time.Millisecond),
		s.Sync.Round(time.Millisecond))
	if s.PrefetchedJobs > 0 || s.CacheHits > 0 || s.CacheMisses > 0 {
		fmt.Printf("cbslave: pipeline: prefetched=%d hidden=%v skips=%d cache=%d/%d\n",
			s.PrefetchedJobs, s.PrefetchSavedEmu.Round(time.Millisecond),
			s.PrefetchSkips, s.CacheHits, s.CacheHits+s.CacheMisses)
	}
	if s.AutotuneSamples > 0 || s.HintsReceived > 0 {
		fmt.Printf("cbslave: adaptive: tuned=%d raises=%d drops=%d hints=%d warmed=%d denied=%d\n",
			s.AutotuneSamples, s.AutotuneRaises, s.AutotuneDrops,
			s.HintsReceived, s.HintsWarmed, s.HintsDenied)
	}
	if s.BufferHits > 0 || s.BufferMisses > 0 {
		fmt.Printf("cbslave: buffer: hits=%d misses=%d bytes=%d\n",
			s.BufferHits, s.BufferMisses, s.BufferBytes)
	}
	if chunks, bytes := slave.HintWaste(); chunks > 0 {
		fmt.Printf("cbslave: hint waste: %d chunk(s), %d bytes warmed but never granted\n", chunks, bytes)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbslave:", err)
	os.Exit(1)
}
