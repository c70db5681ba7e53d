package cluster

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cloudburst/internal/gr"
	"cloudburst/internal/metrics"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
	"cloudburst/internal/wire"
)

// BufferStore is the site-shared burst buffer a slave consults before
// the object store itself: a hit-aware whole-chunk reader. Both
// *store.SiteBuffer (in-process deployments) and *store.Client
// (talking to a cbstore -mode buffer daemon) satisfy it.
type BufferStore interface {
	ReadAtHit(name string, p []byte, off int64) (int, bool, error)
}

// SlaveConfig configures one slave node.
type SlaveConfig struct {
	// Site is the cluster this slave belongs to.
	Site string
	// App is the application to run.
	App gr.App
	// Cores is the number of virtual cores (worker goroutines).
	Cores int
	// HomeStore reads data stored at this slave's own site
	// (sequential, fast path).
	HomeStore store.Store
	// RemoteStores maps other sites to the (shaped) stores used when
	// processing stolen jobs.
	RemoteStores map[string]store.Store
	// Fetch tunes the multi-threaded remote retrieval.
	Fetch store.FetchOptions
	// FetchAutotune replaces the static Fetch.Threads with a per-link
	// AIMD controller: one store.Autotuner per remote site (plus one
	// for the home object store when HomeFetch is set), shared by every
	// core, grows the reader count while added threads pay and backs
	// off when the link's aggregate cap binds. Fetch.Threads seeds each
	// controller. The sequential local-disk path is never tuned.
	FetchAutotune bool
	// GroupUnits is the cache-sized unit group for local reduction.
	GroupUnits int
	// JobsPerRequest is how many jobs a worker asks the master for at
	// once (default 1, the paper's on-demand model).
	JobsPerRequest int
	// HomeFetch uses multi-threaded ranged retrieval even for home
	// data. The cloud cluster sets this: its "local" data lives in the
	// object store, which rewards concurrent range requests just like
	// stolen data does.
	HomeFetch bool
	// Prefetch overlaps retrieval with compute: while a core reduces
	// its current grant, a background goroutine requests the next
	// grant and fetches its chunk data (double buffering).
	Prefetch bool
	// PrefetchBudget caps the slave-wide bytes of prefetched chunk
	// data held ahead of compute (all cores together), so the pipeline
	// cannot silently inflate memory or egress. Zero picks 64 MiB;
	// negative means unlimited.
	PrefetchBudget int64
	// Cache serves repeated chunk retrievals from memory. Nil gets a
	// zero-capacity cache that never caches but still recycles fetch
	// buffers into Pool.
	Cache *store.ChunkCache
	// Buffer, when non-nil, is the site's shared burst buffer: home
	// object-store reads (HomeFetch) consult it before the store, so a
	// chunk is fetched from the backing store once per site instead of
	// once per slave. The first buffer read failure degrades this slave
	// to direct fetches for the rest of the run (the buffer may be
	// down); correctness is unaffected, only the sharing win is lost.
	Buffer BufferStore
	// Pool recycles chunk buffers between fetches; nil gets a fresh
	// pool private to this slave.
	Pool *store.BufferPool
	// UnitCostScale multiplies the app's per-unit compute cost for
	// this slave's cores (cloud instances slower than local Xeons).
	// Zero means 1.
	UnitCostScale float64
	// CostJitter models EC2-style performance variability: each core's
	// effective unit cost is further scaled by a deterministic factor
	// in [1-CostJitter, 1+CostJitter]. The paper observes that the
	// pooling-based load balancer normalizes exactly this.
	CostJitter float64
	// Join registers this slave's workers with KindJoin instead of
	// KindRegisterSlave: the master admits them mid-run (elastic
	// scale-up) rather than counting them against the deploy-time
	// membership.
	Join bool
	// CheckpointJobs, when positive, ships a sequence-numbered partial-
	// reduction checkpoint (KindCheckpoint) to the master every N
	// processed jobs. If the slave is later revoked without warning, the
	// master adopts the newest checkpoint and re-executes only the work
	// since it, instead of the slave's whole grant history. Zero
	// disables checkpointing.
	CheckpointJobs int
	// SyncMode selects how results and checkpoints ship upstream:
	// "streamed-parallel" (the default when empty) encodes straight into
	// bounded KindObjectPart frames (no whole-object allocation on the
	// wire path), "monolithic" keeps the single-frame baseline.
	SyncMode string
	// HeartbeatInterval, when positive, makes each worker heartbeat its
	// master connection so long retrievals are not mistaken for stalls.
	HeartbeatInterval time.Duration
	// Clock paces compute and converts wall to emulated time.
	Clock netsim.Clock
	// Logf receives progress logging; nil silences it.
	Logf func(format string, args ...any)
}

func (c SlaveConfig) withDefaults() SlaveConfig {
	if c.Cores < 1 {
		c.Cores = 1
	}
	if c.JobsPerRequest < 1 {
		c.JobsPerRequest = 1
	}
	c.Fetch = c.Fetch.WithDefaultSizes()
	if c.Pool == nil {
		c.Pool = store.NewBufferPool()
	}
	if c.Cache == nil {
		c.Cache = store.NewChunkCache(0, c.Pool)
	}
	if c.Prefetch && c.PrefetchBudget == 0 {
		c.PrefetchBudget = 64 << 20
	}
	if c.Clock == nil {
		c.Clock = netsim.Instant()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Slave runs Cores worker goroutines, each with its own connection to
// the master and its own private reduction object. Workers request
// jobs on demand (so faster cores naturally process more jobs — the
// paper's pooling-based load balancing), retrieve the chunk data
// (sequential local reads; multi-threaded ranged fetches for stolen
// jobs), and run local reduction in cache-sized unit groups. When the
// pool drains, the workers' objects are merged and shipped to the
// master as this slave's result.
//
// With Prefetch on, each worker double-buffers: a background goroutine
// requests the next grant and retrieves its chunks while the current
// grant reduces, so remote-read latency hides behind compute instead
// of landing on the critical path.
type Slave struct {
	cfg    SlaveConfig
	plan   syncPlan    // resolved SyncMode (streamed vs monolithic shipping)
	budget *byteBudget // caps in-flight prefetched bytes; nil = unlimited

	// tuners holds one AIMD controller per retrieval link (keyed by the
	// chunk's home site), shared by every core so each controller sees
	// the aggregate concurrency its decisions cause.
	tunersMu sync.Mutex
	tuners   map[string]*store.Autotuner

	// chunkIDs remembers each seen chunk's global id by cache key, so
	// cache residency (keyed by ChunkKey) can be reported upstream as
	// the chunk ids the head's steal heuristic speaks.
	idsMu    sync.Mutex
	chunkIDs map[store.ChunkKey]int32

	// Hint-quality feedback: hintWarm holds chunks warmed on a master
	// hint that no worker of this slave has (yet) been granted; whatever
	// remains at end of run was warm bytes the hint stream wasted.
	wasteMu     sync.Mutex
	hintWarm    map[int32]int64
	hintGranted map[int32]bool

	// Spot-preemption state. A warning arms warned + warnWallNS (the
	// wall-clock instant of the hard kill); every worker notices at its
	// next grant boundary and runs an accelerated, deadline-bounded
	// drain. A kill arms revoked and severs every live master
	// connection, which routes recovery through the master's slave-lost
	// re-execution (softened by any checkpoint it holds).
	connsMu    sync.Mutex
	liveConns  map[*wire.Conn]bool
	revoked    atomic.Bool
	warned     atomic.Bool
	warnWallNS atomic.Int64
	flushes    atomic.Int32 // workers whose preempt drain flushed in time

	// bufferDown latches after the first failed buffer read; every
	// later home fetch goes straight to the object store instead of
	// re-probing a dead buffer once per chunk.
	bufferDown atomic.Bool
}

// ErrRevoked marks a slave whose workers died because the harness
// revoked the instance (spot preemption). Deployments treat it as an
// expected membership event — recovery runs through the master — not a
// run failure.
var ErrRevoked = errors.New("cluster: slave revoked")

// NewSlave builds a slave node.
func NewSlave(cfg SlaveConfig) (*Slave, error) {
	cfg = cfg.withDefaults()
	if cfg.Site == "" || cfg.App == nil {
		return nil, fmt.Errorf("cluster: slave needs a site and an app")
	}
	if cfg.HomeStore == nil {
		return nil, fmt.Errorf("cluster: slave needs a home store")
	}
	plan, err := resolveSyncMode(cfg.SyncMode)
	if err != nil {
		return nil, err
	}
	s := &Slave{
		cfg:         cfg,
		plan:        plan,
		tuners:      make(map[string]*store.Autotuner),
		chunkIDs:    make(map[store.ChunkKey]int32),
		hintWarm:    make(map[int32]int64),
		hintGranted: make(map[int32]bool),
		liveConns:   make(map[*wire.Conn]bool),
	}
	if cfg.Prefetch && cfg.PrefetchBudget > 0 {
		s.budget = &byteBudget{avail: cfg.PrefetchBudget}
	}
	return s, nil
}

// tunerFor returns the shared AIMD controller for the link to site,
// creating it on first use seeded from the configured thread count.
func (s *Slave) tunerFor(site string) *store.Autotuner {
	s.tunersMu.Lock()
	defer s.tunersMu.Unlock()
	t, ok := s.tuners[site]
	if !ok {
		t = store.NewAutotuner(s.cfg.Fetch.Threads, 0)
		s.tuners[site] = t
	}
	return t
}

// partSize sizes streamed-object upload parts from the best measured
// per-stream goodput across this slave's tuned links: a slave behind a
// starved WAN link ships the reduction in smaller parts (sub-second
// progress granularity), a well-fed one in larger parts (less framing
// overhead). Untrained or absent tuners yield wire.DefaultPartSize, so
// the adaptive path degrades to the previous fixed sizing.
func (s *Slave) partSize() int {
	var best float64
	s.tunersMu.Lock()
	for _, t := range s.tuners {
		if g := t.Goodput(); g > best {
			best = g
		}
	}
	s.tunersMu.Unlock()
	return wire.AdaptivePartSize(best)
}

// noteChunk remembers a job's cache-key -> chunk-id mapping for
// residency reporting.
func (s *Slave) noteChunk(job wire.JobAssign) {
	key := store.ChunkKey{Site: job.HomeSite, File: job.File, Off: job.Offset, Len: job.Length}
	s.idsMu.Lock()
	s.chunkIDs[key] = job.Chunk
	s.idsMu.Unlock()
}

// residentIDs translates the cache's currently resident keys into
// chunk ids. Keys from before this slave saw their job (e.g. warmed by
// a driver across iterations) are skipped; they will be reported once
// a job or hint names them.
func (s *Slave) residentIDs() []int32 {
	keys := s.cfg.Cache.ResidentKeys()
	if len(keys) == 0 {
		return nil
	}
	s.idsMu.Lock()
	defer s.idsMu.Unlock()
	out := make([]int32, 0, len(keys))
	for _, k := range keys {
		if id, ok := s.chunkIDs[k]; ok {
			out = append(out, id)
		}
	}
	return out
}

// noteHintWarm records a hint chunk warmed into the cache; it stays on
// the waste ledger until some worker of this slave is granted it.
func (s *Slave) noteHintWarm(id int32, bytes int64) {
	s.wasteMu.Lock()
	if !s.hintGranted[id] {
		s.hintWarm[id] = bytes
	}
	s.wasteMu.Unlock()
}

// markGranted clears a chunk from the waste ledger: it was granted to
// one of this slave's workers, so warming it paid off.
func (s *Slave) markGranted(id int32) {
	s.wasteMu.Lock()
	s.hintGranted[id] = true
	delete(s.hintWarm, id)
	s.wasteMu.Unlock()
}

// HintWaste reports the hinted chunks this slave warmed that were
// never granted to any of its workers — the measurement half of hint
// quality. (Shared caches mean a chunk warmed here and granted to a
// co-located slave still counts as this slave's waste; the
// approximation overstates waste slightly rather than hiding it.)
func (s *Slave) HintWaste() (chunks int, bytes int64) {
	s.wasteMu.Lock()
	defer s.wasteMu.Unlock()
	for _, n := range s.hintWarm {
		chunks++
		bytes += n
	}
	return chunks, bytes
}

// trackConn registers a worker's live master connection so Kill can
// sever it; untrackConn removes it when the worker retires.
func (s *Slave) trackConn(c *wire.Conn) {
	s.connsMu.Lock()
	s.liveConns[c] = true
	s.connsMu.Unlock()
}

func (s *Slave) untrackConn(c *wire.Conn) {
	s.connsMu.Lock()
	delete(s.liveConns, c)
	s.connsMu.Unlock()
}

// PreemptWarn delivers a spot revocation warning: the slave has the
// given emulated window before the hard kill. Every worker notices at
// its next grant boundary and runs an accelerated drain — finishing
// in-flight jobs only while the remaining window fits them, returning
// the rest, and flushing its partial reduction to the master.
func (s *Slave) PreemptWarn(warning time.Duration) {
	deadline := s.cfg.Clock.Now().Add(s.cfg.Clock.ToWall(warning))
	s.warnWallNS.Store(deadline.UnixNano())
	s.warned.Store(true)
	s.cfg.Logf("slave %s: revocation warning, %v window", s.cfg.Site, warning)
}

// Kill revokes the instance: every live master connection is severed,
// so the master declares the workers lost and re-executes their
// outstanding work (minus whatever a checkpoint saved). Workers that
// already flushed a drain result are unaffected.
func (s *Slave) Kill() {
	s.revoked.Store(true)
	s.connsMu.Lock()
	conns := make([]*wire.Conn, 0, len(s.liveConns))
	for c := range s.liveConns {
		conns = append(conns, c)
	}
	s.connsMu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	s.cfg.Logf("slave %s: revoked (%d live connections severed)", s.cfg.Site, len(conns))
}

// Revoked reports whether Kill has fired.
func (s *Slave) Revoked() bool { return s.revoked.Load() }

// DrainFlushed reports whether every worker completed its accelerated
// preemption drain — flushed its partial reduction and returned its
// unprocessed work — before the kill landed.
func (s *Slave) DrainFlushed() bool {
	return int(s.flushes.Load()) >= s.cfg.Cores
}

// preemptDeadline returns the wall-clock kill instant, or zero time if
// no warning is armed.
func (s *Slave) preemptDeadline() time.Time {
	ns := s.warnWallNS.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Run connects every virtual core to the master, processes jobs until
// the pool drains, and ships each core's reduction object; the master
// performs the intra-cluster combine. It returns the slave's
// aggregated metrics.
func (s *Slave) Run(masterAddr string, dial store.Dialer) (*metrics.Breakdown, error) {
	type workerOut struct {
		stats metrics.Snapshot
		err   error
	}
	outs := make([]workerOut, s.cfg.Cores)
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Cores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats, err := s.worker(masterAddr, dial, w)
			outs[w] = workerOut{stats, err}
		}(w)
	}
	wg.Wait()

	total := &metrics.Breakdown{}
	for _, o := range outs {
		if o.err != nil {
			if s.revoked.Load() {
				// Worker deaths caused by the revocation are the expected
				// shape of a spot kill, not a run failure: the master's
				// slave-lost path re-executes everything outstanding.
				return nil, fmt.Errorf("%w: %v", ErrRevoked, o.err)
			}
			return nil, o.err
		}
		total.AddSnapshot(o.stats)
	}
	return total, nil
}

// byteBudget caps the slave's total in-flight prefetched bytes across
// all cores. A nil budget admits everything.
type byteBudget struct {
	mu    sync.Mutex
	avail int64
}

// tryAcquire claims n bytes without blocking; a denial means the
// caller should skip prefetching and fetch on demand instead.
func (b *byteBudget) tryAcquire(n int64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.avail {
		return false
	}
	b.avail -= n
	return true
}

func (b *byteBudget) release(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.avail += n
	b.mu.Unlock()
}

// jobItem is one granted job plus, when prefetched, its chunk bytes.
type jobItem struct {
	job     wire.JobAssign
	data    []byte // non-nil once a prefetch delivered the chunk
	release func() // hands the bytes back (cache reference / pool)
	budget  int64  // bytes still held against the prefetch budget

	fetchEmu   time.Duration // background retrieval time (emulated)
	exposedEmu time.Duration // part of fetchEmu the foreground waited out
	savedEmu   time.Duration // part of fetchEmu hidden behind compute
}

// grantResult is one master response, possibly produced ahead of time
// by the prefetch goroutine.
type grantResult struct {
	resp  *wire.Message
	items []*jobItem
	err   error
}

func makeItems(jobs []wire.JobAssign) []*jobItem {
	items := make([]*jobItem, len(jobs))
	for i, job := range jobs {
		items[i] = &jobItem{job: job}
	}
	return items
}

// jitterFactor derives worker w's deterministic speed factor in
// [1-j, 1+j] from its index.
func jitterFactor(w int, j float64) float64 {
	if j <= 0 {
		return 1
	}
	x := uint64(w)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	frac := float64(x>>40) / float64(1<<24)
	return 1 + j*(2*frac-1)
}

// worker is one virtual core: its own master connection, engine and
// private reduction object, shipped to the master when the pool dries.
// A job is granted (requestNow or prefetch), fetched (prefetch, or on
// demand in reduce), reduced (reduce) and reported (the next request or
// the result) — or, on a master drain or a spot warning, returned
// unprocessed by retire, the only early exit.
type worker struct {
	s      *Slave
	idx    int
	conn   *wire.Conn
	engine *gr.Engine
	red    gr.Reduction
	stats  *metrics.Breakdown

	// drainReq latches the master's retire command: a KindDrain push
	// absorbed by call (possibly on the prefetch goroutine) or a
	// drain-flagged grant. The worker retires at its next grant.
	drainReq atomic.Bool

	pending []int32 // completions not yet reported
	// covered is every job reduced into red: the job-set tag that lets
	// the master merge an adopted checkpoint against re-execution.
	covered []int32
	// held names every item of the current grant, plus a preempt
	// drain's adopted in-flight grant. Reduced or returned items hold
	// nothing, so releasing held on exit frees what is outstanding.
	held []*jobItem

	// At most one grant is in flight on the prefetch goroutine; the
	// foreground never touches the connection while one is out, which
	// keeps the single master connection's request/response strict.
	nextCh   chan *grantResult
	inflight bool

	jobWallEMA time.Duration // one job's wall cost, for preempt drains

	ckptSeq, lastCkptLen int
	lastCkptHash         uint64

	warmWG sync.WaitGroup // in-flight hint warmers
}

// worker dials the master, registers core idx and runs its grant loop.
func (s *Slave) worker(masterAddr string, dial store.Dialer, idx int) (metrics.Snapshot, error) {
	raw, err := dial("tcp", masterAddr)
	if err != nil {
		return metrics.Snapshot{}, fmt.Errorf("cluster: slave %s: dial master: %w", s.cfg.Site, err)
	}
	conn := wire.NewConn(raw)
	conn.SetBufferPool(s.cfg.Pool)
	defer conn.Close()
	s.trackConn(conn)
	defer s.untrackConn(conn)

	w := &worker{s: s, idx: idx, conn: conn, stats: &metrics.Breakdown{},
		nextCh: make(chan *grantResult, 1)}
	regKind := wire.KindRegisterSlave
	if s.cfg.Join {
		regKind = wire.KindJoin
	}
	if _, err := w.call(&wire.Message{Kind: regKind, Site: s.cfg.Site}); err != nil {
		return metrics.Snapshot{}, err
	}
	if s.cfg.HeartbeatInterval > 0 {
		stop := wire.HeartbeatsWith(conn, s.cfg.HeartbeatInterval, s.cfg.Logf)
		defer stop()
	}

	scale := s.cfg.UnitCostScale
	if scale <= 0 {
		scale = 1
	}
	w.engine = gr.NewEngine(s.cfg.App, gr.EngineOptions{
		GroupUnits:    s.cfg.GroupUnits,
		Clock:         s.cfg.Clock,
		Stats:         w.stats,
		UnitCostScale: scale * jitterFactor(idx, s.cfg.CostJitter),
	})
	w.red = s.cfg.App.NewReduction()
	return w.run()
}

// run is the grant loop. The first grant is always requested
// synchronously; with Prefetch on, every later grant is requested —
// and its chunks fetched — while the current one reduces.
func (w *worker) run() (metrics.Snapshot, error) {
	s := w.s
	defer w.warmWG.Wait() // warming writes stats; finish before snapshot
	defer func() {
		// Error exits: wait out any in-flight prefetch and hand every
		// unprocessed chunk's buffer (and budget bytes) back.
		w.settle()
		s.releaseItems(w.held)
	}()

	cur, err := w.requestNow()
	if err != nil {
		return metrics.Snapshot{}, err
	}
	for {
		if cur.err != nil {
			return metrics.Snapshot{}, cur.err
		}
		if cur.resp.Kind != wire.KindJobGrant {
			return metrics.Snapshot{}, fmt.Errorf("cluster: slave %s: unexpected %v", s.cfg.Site, cur.resp.Kind)
		}
		for _, j := range cur.resp.Jobs {
			s.markGranted(j.Chunk)
		}
		if cur.resp.Drain {
			w.drainReq.Store(true)
		}
		if w.drainReq.Load() {
			// This grant's jobs go back unprocessed. (No prefetch is in
			// flight at the top of the loop: the connection is ours.)
			snap, err := w.retire(cur.items)
			if err != nil {
				return metrics.Snapshot{}, fmt.Errorf("cluster: slave %s: ship drain result: %w", s.cfg.Site, err)
			}
			s.cfg.Logf("slave %s[%d]: drained (%d completed, %d returned)",
				s.cfg.Site, w.idx, len(w.pending), len(cur.items))
			return snap, nil
		}
		done := cur.resp.Done && len(cur.resp.Jobs) == 0
		if len(cur.resp.Hints) > 0 && s.cfg.Prefetch && s.cfg.Cache.Enabled() {
			w.warmWG.Add(1)
			go w.warmHints(cur.resp.Hints)
		}
		if !done && s.cfg.Prefetch {
			// Snapshot the completions now: the request they ride on
			// goes out concurrently with this grant's compute. Jobs of
			// the current grant are reported once they finish, on the
			// next request (or the final result message).
			carry := w.pending
			w.pending = nil
			w.inflight = true
			go w.prefetch(carry)
		}
		for i, it := range cur.items {
			if s.warned.Load() {
				// Revocation warning: switch to the accelerated drain for
				// this grant's remainder (plus any in-flight prefetch).
				return w.preemptFlush(cur.items[i:])
			}
			if err := w.reduce(it); err != nil {
				return metrics.Snapshot{}, err
			}
			if n := s.cfg.CheckpointJobs; n > 0 && len(w.covered)%n == 0 {
				w.checkpoint() // every n reduced jobs
			}
		}
		if done {
			break
		}
		if s.cfg.Prefetch {
			cur = w.receive()
		} else if cur, err = w.requestNow(); err != nil {
			return metrics.Snapshot{}, err
		}
	}

	w.warmWG.Wait() // hint warmers write stats; their counters ship too
	snap, err := w.shipResult(nil)
	if err != nil {
		return metrics.Snapshot{}, fmt.Errorf("cluster: slave %s: ship result: %w", s.cfg.Site, err)
	}
	return snap, nil
}

// call sends m and returns the master's answer, latching any KindDrain
// push that arrives ahead of it.
func (w *worker) call(m *wire.Message) (*wire.Message, error) {
	if err := w.conn.Send(m); err != nil {
		return nil, err
	}
	for {
		resp, err := w.conn.Recv()
		if err != nil {
			return nil, err
		}
		switch resp.Kind {
		case wire.KindDrain:
			w.drainReq.Store(true)
			continue
		case wire.KindError:
			return nil, &wire.RemoteError{Msg: resp.Err}
		}
		return resp, nil
	}
}

// request asks the master for the next grant, reporting completed jobs
// and piggybacking cache residency and hint waste.
func (w *worker) request(completed []int32) (*wire.Message, error) {
	s := w.s
	// A nil Resident means "no report" (cache disabled); with the
	// cache enabled the report is always non-nil — even empty — so a
	// drained cache clears the master's stale warm set.
	var resident []int32
	if s.cfg.Cache.Enabled() {
		if resident = s.residentIDs(); resident == nil {
			resident = []int32{}
		}
	}
	// Piggyback the hint-waste ledger so the master can trim this
	// slave's effective hint depth when its warm bytes stop paying.
	wasteChunks, wasteBytes := s.HintWaste()
	return w.call(&wire.Message{
		Kind: wire.KindRequestJob, Max: s.cfg.JobsPerRequest,
		Completed: completed, Resident: resident,
		HintWasteChunks: wasteChunks, HintWasteBytes: wasteBytes,
	})
}

// requestNow requests the next grant in the foreground, reporting the
// pending completions, and charges the wait to sync.
func (w *worker) requestNow() (*grantResult, error) {
	clk := w.s.cfg.Clock
	t0 := clk.Now()
	resp, err := w.request(w.pending)
	w.stats.AddSync(clk.ToEmu(clk.Now().Sub(t0)))
	if err != nil {
		return nil, fmt.Errorf("cluster: slave %s: request job: %w", w.s.cfg.Site, err)
	}
	w.pending = nil
	g := &grantResult{resp: resp, items: makeItems(resp.Jobs)}
	w.held = g.items
	return g, nil
}

// prefetch runs on its own goroutine: it requests the next grant and
// retrieves its chunks ahead of compute, within the slave's byte
// budget. Denied items stay data-less and are fetched on demand by
// reduce.
func (w *worker) prefetch(completed []int32) {
	s := w.s
	g := &grantResult{}
	g.resp, g.err = w.request(completed)
	if g.err != nil {
		g.err = fmt.Errorf("cluster: slave %s: request job: %w", s.cfg.Site, g.err)
	} else if g.resp.Kind == wire.KindJobGrant {
		g.items = makeItems(g.resp.Jobs)
		for _, it := range g.items {
			if !s.budget.tryAcquire(it.job.Length) {
				w.stats.CountPrefetchSkip()
				continue
			}
			f0 := s.cfg.Clock.Now()
			data, release, err := s.fetchJob(it.job, w.stats)
			if err != nil {
				s.budget.release(it.job.Length)
				g.err = fmt.Errorf("cluster: slave %s: prefetch job %d: %w",
					s.cfg.Site, it.job.Chunk, err)
				break
			}
			it.data, it.release = data, release
			it.budget = it.job.Length
			it.fetchEmu = s.cfg.Clock.ToEmu(s.cfg.Clock.Now().Sub(f0))
		}
	}
	w.nextCh <- g
}

// settle waits out the in-flight prefetch, if any (else it returns
// nil), and adds its grant's items to what the worker holds.
func (w *worker) settle() *grantResult {
	if !w.inflight {
		return nil
	}
	g := <-w.nextCh
	w.inflight = false
	w.held = append(w.held, g.items...)
	return g
}

// receive waits for the in-flight grant and attributes the exposed
// wait: the part that overlaps background retrieval counts as
// retrieval (spread over the prefetched items in proportion to their
// fetch times), the remainder as sync. Whatever retrieval time compute
// hid is recorded as the prefetch's win.
func (w *worker) receive() *grantResult {
	clk := w.s.cfg.Clock
	w.held = nil // every item of the finished grant is reduced
	w0 := clk.Now()
	g := w.settle()
	exposed := clk.ToEmu(clk.Now().Sub(w0))
	var totalFetch time.Duration
	for _, it := range g.items {
		if it.data != nil {
			totalFetch += it.fetchEmu
		}
	}
	exposedFetch := min(exposed, totalFetch)
	w.stats.AddSync(exposed - exposedFetch)
	if totalFetch > 0 {
		for _, it := range g.items {
			if it.data == nil {
				continue
			}
			frac := float64(it.fetchEmu) / float64(totalFetch)
			it.exposedEmu = time.Duration(frac * float64(exposedFetch))
			it.savedEmu = it.fetchEmu - it.exposedEmu
		}
	}
	return g
}

// reduce takes one granted job to reduced: it frees the job's prefetch
// budget (bytes handed to compute are no longer in flight ahead of the
// core), attributes its retrieval — the exposed share of a prefetch,
// or an on-demand fetch timed here — folds the chunk into the worker's
// reduction object, and records the job as pending and covered.
func (w *worker) reduce(it *jobItem) error {
	s, stats := w.s, w.stats
	if it.budget > 0 {
		s.budget.release(it.budget)
		it.budget = 0
	}
	j0 := s.cfg.Clock.Now()
	data, release := it.data, it.release
	it.data, it.release = nil, nil
	if data != nil {
		stats.AddRetrieval(it.exposedEmu, it.job.Length, it.job.Stolen)
		stats.AddPrefetch(it.savedEmu)
	} else {
		var err error
		if data, release, err = s.fetchJob(it.job, stats); err != nil {
			return fmt.Errorf("cluster: slave %s: retrieve job %d: %w", s.cfg.Site, it.job.Chunk, err)
		}
		stats.AddRetrieval(s.cfg.Clock.ToEmu(s.cfg.Clock.Now().Sub(j0)), it.job.Length, it.job.Stolen)
	}
	units, err := w.engine.ProcessChunk(w.red, data)
	release()
	if err != nil {
		return err
	}
	stats.CountJob(it.job.Stolen, int64(units))
	if d := s.cfg.Clock.Now().Sub(j0); w.jobWallEMA == 0 {
		w.jobWallEMA = d
	} else {
		w.jobWallEMA = (w.jobWallEMA + d) / 2
	}
	w.pending = append(w.pending, it.job.Chunk)
	w.covered = append(w.covered, it.job.Chunk)
	return nil
}

// warmHints runs beside compute: chunks the master expects to grant
// soon are fetched into the shared cache, each admission charged
// against the prefetch byte budget while its fetch is in flight (once
// cached, the cache's own cap bounds retention). A denied or failed
// hint degrades silently to an on-demand fetch.
func (w *worker) warmHints(hints []wire.JobAssign) {
	defer w.warmWG.Done()
	s := w.s
	for _, job := range hints {
		s.noteChunk(job)
		key := store.ChunkKey{Site: job.HomeSite, File: job.File, Off: job.Offset, Len: job.Length}
		if !s.budget.tryAcquire(job.Length) {
			w.stats.CountHint(false)
			continue
		}
		_, release, _, err := s.cfg.Cache.GetOrFetch(key, func() ([]byte, error) {
			return s.rawFetch(job, w.stats)
		})
		s.budget.release(job.Length)
		if err != nil {
			w.stats.CountHint(false)
			continue
		}
		release()
		w.stats.CountHint(true)
		s.noteHintWarm(job.Chunk, job.Length)
	}
}

// checkpoint ships the current partial reduction as a one-way,
// sequence-numbered push. Failure is harmless — the master just keeps
// the previous checkpoint — so errors are swallowed; a dead connection
// surfaces at the next request anyway.
//
// Cadence guard: the encoded object is hashed, and a checkpoint
// byte-identical to the previous one is skipped — the master's copy is
// already current, so re-shipping it buys nothing. (The skipped push's
// extra covered chunks are safe to omit: re-executing a chunk that
// contributed nothing reproduces the same reduction.)
func (w *worker) checkpoint() {
	s := w.s
	enc, release, err := gr.EncodeReductionTo(w.red, s.cfg.Pool)
	if err != nil {
		return
	}
	defer release()
	h := hashBytes(enc)
	if w.ckptSeq > 0 && len(enc) == w.lastCkptLen && h == w.lastCkptHash {
		w.stats.CountCheckpointSkip()
		return
	}
	w.lastCkptHash, w.lastCkptLen = h, len(enc)
	w.stats.CountCheckpoint()
	w.ckptSeq++
	msg := &wire.Message{
		Kind: wire.KindCheckpoint, Seq: w.ckptSeq,
		Completed: append([]int32(nil), w.covered...),
	}
	if s.plan.streamed {
		ow := wire.NewObjectWriter(w.conn, s.partSize())
		if _, err := ow.Write(enc); err != nil {
			return
		}
		if err := ow.Close(); err != nil {
			return
		}
		w.stats.AddObjectStream(ow.Frames(), ow.Bytes(), int64(w.red.Bytes()))
	} else {
		msg.Object = enc
	}
	msg.Stats = wire.Stats{Breakdown: w.stats.Snapshot()}
	_ = w.conn.Send(msg)
}

// shipResult encodes and ships this worker's reduction as its
// KindSlaveResult (a non-nil Returned marks a drain flush). Under a
// streamed plan the object encodes straight into bounded part frames —
// the full encoded object is never materialized — and the terminal
// message carries no Object. Returns the snapshot shipped.
func (w *worker) shipResult(returned []int32) (metrics.Snapshot, error) {
	msg := &wire.Message{Kind: wire.KindSlaveResult, Completed: w.pending, Returned: returned}
	if w.s.plan.streamed {
		ow := wire.NewObjectWriter(w.conn, w.s.partSize())
		if err := w.red.Encode(ow); err != nil {
			return metrics.Snapshot{}, err
		}
		if err := ow.Close(); err != nil {
			return metrics.Snapshot{}, err
		}
		w.stats.AddObjectStream(ow.Frames(), ow.Bytes(), int64(w.red.Bytes()))
	} else {
		enc, err := gr.EncodeReduction(w.red)
		if err != nil {
			return metrics.Snapshot{}, err
		}
		msg.Object = enc
	}
	snap := w.stats.Snapshot()
	msg.Stats = wire.Stats{Breakdown: snap}
	if _, err := w.call(msg); err != nil {
		return metrics.Snapshot{}, err
	}
	return snap, nil
}

// retire is the worker's only early exit: items go back to the master
// unprocessed and release their bytes, and everything already reduced
// ships as a partial result, so no chunk is lost or reduced twice. The
// non-nil (even if empty) Returned marks the result as a drain flush.
func (w *worker) retire(items []*jobItem) (metrics.Snapshot, error) {
	returned := make([]int32, 0, len(items))
	for _, it := range items {
		returned = append(returned, it.job.Chunk)
	}
	w.s.releaseItems(items)
	w.warmWG.Wait()
	return w.shipResult(returned)
}

// preemptFlush runs the accelerated, deadline-bounded drain a spot
// warning triggers. Any in-flight prefetch is settled first (its grant
// joins the unprocessed set — the connection must be quiet before we
// can announce). The announcement is a request: once its Ack lands the
// master has this connection marked draining, so no other worker can
// slip away with an end-of-run grant while our returns are still in
// flight. Then jobs are finished only while the remaining window
// comfortably fits them (twice the per-job EMA, leaving room for the
// flush itself); the rest are retired with the partial reduction.
func (w *worker) preemptFlush(unprocessed []*jobItem) (metrics.Snapshot, error) {
	s := w.s
	w.held = unprocessed // the items before these are reduced already
	if g := w.settle(); g != nil {
		if g.err != nil {
			return metrics.Snapshot{}, g.err
		}
		if g.resp.Kind == wire.KindJobGrant {
			for _, j := range g.resp.Jobs {
				s.markGranted(j.Chunk)
			}
		}
	}
	unprocessed = w.held
	if _, err := w.call(&wire.Message{Kind: wire.KindPreemptWarn}); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("cluster: slave %s: announce preempt drain: %w", s.cfg.Site, err)
	}
	deadline := s.preemptDeadline()
	kept := 0
	for _, it := range unprocessed {
		remaining := deadline.Sub(s.cfg.Clock.Now())
		if remaining <= 0 || (w.jobWallEMA > 0 && remaining < 2*w.jobWallEMA) {
			break
		}
		if err := w.reduce(it); err != nil {
			return metrics.Snapshot{}, err
		}
		kept++
	}
	abandoned := unprocessed[kept:]
	if len(abandoned) > 0 {
		w.stats.CountPreemptAbandon(len(abandoned))
	}
	w.stats.CountPreemptDrain()
	snap, err := w.retire(abandoned)
	if err != nil {
		return metrics.Snapshot{}, fmt.Errorf("cluster: slave %s: ship preempt drain result: %w", s.cfg.Site, err)
	}
	s.flushes.Add(1)
	s.cfg.Logf("slave %s[%d]: preempt drain flushed (%d done, %d returned, %d abandoned)",
		s.cfg.Site, w.idx, len(w.pending), len(abandoned), len(abandoned))
	return snap, nil
}

// releaseItems hands back the budget bytes and buffers items still
// hold. Each is given back once, so a repeat call is a no-op.
func (s *Slave) releaseItems(items []*jobItem) {
	for _, it := range items {
		if it.budget > 0 {
			s.budget.release(it.budget)
			it.budget = 0
		}
		if it.release != nil {
			it.release()
			it.release, it.data = nil, nil
		}
	}
}

// fetchJob resolves one job's chunk bytes through the slave's chunk
// cache — a byte-capped LRU shared by every core and, when the driver
// installs a persistent per-site cache, across iterations. The
// returned release must be called exactly once after the bytes have
// been reduced.
func (s *Slave) fetchJob(job wire.JobAssign, stats *metrics.Breakdown) ([]byte, func(), error) {
	s.noteChunk(job)
	key := store.ChunkKey{Site: job.HomeSite, File: job.File, Off: job.Offset, Len: job.Length}
	data, release, hit, err := s.cfg.Cache.GetOrFetch(key, func() ([]byte, error) {
		return s.rawFetch(job, stats)
	})
	if err != nil {
		return nil, nil, err
	}
	if s.cfg.Cache.Enabled() {
		stats.CountCache(hit, job.Length)
	}
	return data, release, nil
}

// rawFetch reads one chunk from its store: the home store for local
// jobs (a single sequential read for disk data; ranged concurrent
// requests when the site's data lives in an object store) or the
// shaped remote store for stolen jobs. Buffers come from the slave's
// pool.
func (s *Slave) rawFetch(job wire.JobAssign, stats *metrics.Breakdown) ([]byte, error) {
	opts := s.cfg.Fetch
	opts.Stats = stats
	opts.Clock = s.cfg.Clock
	opts.Pool = s.cfg.Pool
	st := s.cfg.HomeStore
	ranged := true
	if job.HomeSite == s.cfg.Site {
		if !s.cfg.HomeFetch {
			// Local disk data: one continuous sequential read, retried
			// as a whole on transient failure.
			opts.Threads = 1
			opts.RangeSize = int(job.Length)
			ranged = false
		} else if s.cfg.Buffer != nil && !s.bufferDown.Load() {
			// Tier 2: the site-shared burst buffer. One whole-chunk read
			// keeps the buffer's cache key identical to the master's
			// staging key; the buffer parallelizes its own backing fetch
			// under the site-wide autotune budget, so the per-slave
			// tuner stays out of this path.
			if data, err := s.bufferFetch(job, stats); err == nil {
				return data, nil
			} else if !s.bufferDown.Swap(true) {
				s.cfg.Logf("slave %s: buffer read failed (%v); degrading to direct fetches", s.cfg.Site, err)
			}
			// Fall through to the direct object-store path.
		}
	} else {
		var ok bool
		st, ok = s.cfg.RemoteStores[job.HomeSite]
		if !ok {
			return nil, fmt.Errorf("cluster: slave %s: no remote store for site %q", s.cfg.Site, job.HomeSite)
		}
	}
	if s.cfg.FetchAutotune && ranged {
		opts.Tuner = s.tunerFor(job.HomeSite)
	}
	return store.Fetch(st, job.File, job.Offset, job.Length, opts)
}

// bufferFetch reads one whole chunk through the site's burst buffer
// and attributes it to the buffer tier. A short read is an error: the
// caller falls back to the direct path and the bytes stay correct.
func (s *Slave) bufferFetch(job wire.JobAssign, stats *metrics.Breakdown) ([]byte, error) {
	buf := s.cfg.Pool.Get(job.Length)
	n, hit, err := s.cfg.Buffer.ReadAtHit(job.File, buf, job.Offset)
	if err != nil && err != io.EOF {
		s.cfg.Pool.Put(buf)
		return nil, err
	}
	if int64(n) < job.Length {
		s.cfg.Pool.Put(buf)
		return nil, fmt.Errorf("cluster: slave %s: buffer short read of %s@%d: %d of %d bytes",
			s.cfg.Site, job.File, job.Offset, n, job.Length)
	}
	stats.CountBuffer(hit, job.Length)
	return buf, nil
}
