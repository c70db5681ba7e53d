package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cloudburst/internal/chunk"
	"cloudburst/internal/elastic"
	"cloudburst/internal/faults"
	"cloudburst/internal/gr"
	"cloudburst/internal/metrics"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
)

// SiteSpec describes one cluster of a deployment.
type SiteSpec struct {
	// Name is the site/cluster name referenced by the index's files.
	Name string
	// Cores is the number of virtual cores the site contributes.
	Cores int
	// HomeStore reads the site's own data (unshaped fast path).
	HomeStore store.Store
	// RemoteStores are (shaped) views of other sites' data, used for
	// stolen jobs.
	RemoteStores map[string]store.Store
	// HeadLink shapes the master<->head connection (the inter-cluster
	// path the reduction objects travel).
	HeadLink netsim.Link
	// SlaveLink shapes slave<->master connections (intra-cluster).
	SlaveLink netsim.Link
	// HomeFetch makes home reads use multi-threaded ranged retrieval
	// (the cloud cluster reading its object store).
	HomeFetch bool
	// Cache, when non-nil, is this site's chunk cache. It outlives the
	// run: the iterative driver installs one per site so multi-pass
	// algorithms keep chunks warm between iterations. When nil,
	// DeployConfig.CacheBytes > 0 builds a fresh per-run cache.
	Cache *store.ChunkCache
	// Buffer, when non-nil, is this site's burst buffer: a site-shared
	// chunk cache fronting the home store for HomeFetch reads, consulted
	// by every slave before S3 and staged into by the master. Like Cache
	// it outlives the run (the iterative driver installs one per site);
	// when nil, DeployConfig.BufferBytes > 0 builds a fresh per-run
	// buffer that is drained when the run completes.
	Buffer *store.SiteBuffer
	// UnitCostScale adjusts this site's per-core compute speed.
	UnitCostScale float64
	// CostJitter spreads per-core speeds by ±CostJitter (EC2-style
	// performance variability).
	CostJitter float64
}

// DeployConfig describes a whole in-process deployment: one head, one
// master per site, and each site's cores as slave workers, all
// connected over loopback TCP through shaped links.
type DeployConfig struct {
	App   gr.App
	Index *chunk.Index
	Sites []SiteSpec
	Clock netsim.Clock

	// Batch/Watermark tune master refills; GroupUnits the engine's
	// cache group; JobsPerRequest the slave's request size; Fetch the
	// remote retrieval. Zero values pick defaults.
	Batch          int
	Watermark      int
	GroupUnits     int
	JobsPerRequest int
	Fetch          store.FetchOptions
	// Prefetch turns on the slave retrieval pipeline: each core
	// requests its next grant and fetches its chunks while the current
	// grant reduces.
	Prefetch bool
	// PrefetchBudget caps each slave's in-flight prefetched bytes;
	// zero picks the slave default (64 MiB), negative is unlimited.
	PrefetchBudget int64
	// FetchAutotune replaces the static fetch thread count with
	// per-link AIMD controllers on every slave (see
	// SlaveConfig.FetchAutotune); Fetch.Threads seeds the controllers.
	FetchAutotune bool
	// HintDepth makes masters piggyback up to this many likely-next
	// jobs as prefetch hints on every grant, so slaves warm their
	// caches deeper than one grant. Zero disables hints; effective only
	// with Prefetch and a cache.
	HintDepth int
	// CacheBytes gives each site without an explicit SiteSpec.Cache a
	// per-run chunk cache of this many bytes; zero disables caching.
	CacheBytes int64
	// BufferBytes gives each HomeFetch site without an explicit
	// SiteSpec.Buffer a per-run burst buffer of this capacity fronting
	// its home store, drained when the run completes. Zero disables the
	// buffer tier. With FetchAutotune the buffer's backing fetches share
	// one site-wide AIMD budget instead of N per-slave probes.
	BufferBytes int64
	// StageBudget caps the bytes each master may proactively stage into
	// its site's burst buffer (0 = unlimited staging).
	StageBudget int64
	// Scatter disables consecutive-job assignment (ablation knob).
	Scatter bool
	// HeartbeatInterval enables stall detection throughout the tree:
	// slaves heartbeat masters, masters heartbeat the head, and each
	// server side declares a peer lost after HeartbeatMisses silent
	// intervals. Zero disables liveness (crash detection still works
	// through connection closes).
	HeartbeatInterval time.Duration
	HeartbeatMisses   int

	// Elastic enables the deadline/cost scaling controller for one
	// site: the head observes progress and issues decisions, a
	// provisioner boots 1-core join slaves after Elastic.BootLatency of
	// emulated time, and the site's master drains surplus workers. The
	// named site's SiteSpec.Cores seeds the initial membership.
	Elastic *elastic.Config

	// Revocations, when set, schedules spot preemptions against the
	// elastic site's provisioned workers: at each trace event's time one
	// live spot join slave is revoked — killed outright, or, when the
	// event carries a warning window, warned first (the slave runs its
	// accelerated drain) and killed when the window closes. Workers
	// booted on the on-demand fallback tier are exempt. Requires
	// Elastic; without provisioned spot workers events fire into the
	// void.
	Revocations *faults.RevocationTrace
	// CheckpointJobs makes every slave ship a sequence-numbered partial
	// reduction checkpoint to its master every N processed jobs; when
	// the slave dies, the master adopts the newest checkpoint and
	// re-executes only the post-checkpoint remainder. Zero disables
	// checkpointing.
	CheckpointJobs int

	// SyncMode selects the global-reduction sync strategy for every
	// tier: "streamed-parallel" (bounded KindObjectPart frames, a
	// worker-pool tree merge overlapped with transfers, final delivered
	// as an exchange) or "monolithic" (single-frame objects, serial
	// merge after the all-arrivals barrier, final broadcast to every
	// master). Empty picks streamed-parallel; any other value fails Run.
	SyncMode string
	// MergeCost charges every combine fold (master and head) an
	// emulated duration per byte of the folded reduction object,
	// restoring the paper-scale merge CPU the ~10,000x byte scale-down
	// erased (see gr.MergerOptions.CostPerByte). Zero charges nothing.
	MergeCost time.Duration

	Logf func(format string, args ...any)
}

// RunResult is everything a deployment run produces.
type RunResult struct {
	Report *metrics.RunReport
	// Final is the globally reduced object (head's copy).
	Final gr.Reduction
	// PerSiteFinal holds each master's decoded copy of the final
	// object (they must agree with Final; tests check).
	PerSiteFinal map[string]gr.Reduction
}

// provisioner boots additional 1-core slaves for the elastic site,
// each paying the configured emulated boot latency before it can dial
// in and join. Provisioned workers never fail the run: a worker lost
// after joining re-executes through the slave-lost path, and a boot
// that lands after the run ends is merely wasted money.
type provisioner struct {
	clock netsim.Clock
	boot  time.Duration
	logf  func(format string, args ...any)

	mu        sync.Mutex
	stopped   bool
	spawn     func(onDemand bool) error // set once the elastic site's master listens
	ready     chan struct{}             // closed when spawn is installed
	halted    chan struct{}             // closed by stop()
	slaves    []*Slave                  // every provisioned slave (hint-waste folding)
	revocable []*Slave                  // live spot join slaves (preemption victims)
	wasted    int                       // boots that arrived after the run ended
	wg        sync.WaitGroup
}

// ScaleUp implements HeadConfig.ScaleUp; it returns immediately and
// boots n workers in the background. onDemand workers are exempt from
// the revocation trace. A worker revoked mid-run did real work before
// dying, so it is not a wasted boot.
func (p *provisioner) ScaleUp(site string, n int, onDemand bool) {
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.clock.Sleep(p.boot) // simulated instance boot
			// An advisor warm start boots at t=0; under a fast emulated
			// clock the boot can mature before the deployment has wired
			// the elastic site's master. Such a boot is early, not
			// wasted: hold it until spawn is installed (or the run ends).
			select {
			case <-p.ready:
			case <-p.halted:
			}
			p.mu.Lock()
			spawn, stopped := p.spawn, p.stopped
			p.mu.Unlock()
			if stopped || spawn == nil {
				p.noteWasted()
				return
			}
			if err := spawn(onDemand); err != nil && !errors.Is(err, ErrRevoked) {
				p.noteWasted()
				p.logf("provisioner: %s worker boot wasted: %v", site, err)
			}
		}()
	}
}

// addRevocable registers a live spot join slave as a preemption
// victim; dropRevocable removes it when it exits for any reason.
func (p *provisioner) addRevocable(s *Slave) {
	p.mu.Lock()
	p.revocable = append(p.revocable, s)
	p.mu.Unlock()
}

func (p *provisioner) dropRevocable(s *Slave) {
	p.mu.Lock()
	for i, v := range p.revocable {
		if v == s {
			p.revocable = append(p.revocable[:i], p.revocable[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// victim pops one live spot slave for revocation, or nil when none
// remain. Popping (rather than peeking) guarantees a slave is revoked
// at most once even when trace events land close together. The oldest
// worker goes first: spot markets reclaim long-lived instances as
// readily as fresh ones, and the oldest holds the most granted work —
// the worst case the checkpoint machinery exists for.
func (p *provisioner) victim() *Slave {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.revocable) == 0 {
		return nil
	}
	s := p.revocable[0]
	p.revocable = p.revocable[1:]
	return s
}

func (p *provisioner) noteWasted() {
	p.mu.Lock()
	p.wasted++
	p.mu.Unlock()
}

func (p *provisioner) stop() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		close(p.halted)
	}
	p.mu.Unlock()
}

// preemptor paces a revocation trace against the provisioner's live
// spot slaves on the run's wall clock. Each event picks one victim:
// warned events arm the slave's accelerated drain and kill it when the
// warning window closes; unwarned events kill it outright. Every
// revocation is reported to the head so the elastic controller can
// re-provision (and eventually fall back to on-demand capacity).
type preemptor struct {
	clk   netsim.Clock
	trace *faults.RevocationTrace
	prov  *provisioner
	head  *Head
	logf  func(format string, args ...any)

	stop chan struct{}
	wg   sync.WaitGroup

	mu  sync.Mutex
	rep metrics.PreemptionReport // trace-side tallies only
}

func newPreemptor(clk netsim.Clock, trace *faults.RevocationTrace, prov *provisioner, head *Head, logf func(string, ...any)) *preemptor {
	p := &preemptor{clk: clk, trace: trace, prov: prov, head: head, logf: logf, stop: make(chan struct{})}
	p.wg.Add(1)
	go p.run()
	return p
}

// sleepUntil waits (interruptibly — netsim sleeps are not) until the
// emulated trace offset at, measured from start. Returns false when
// the run ended first.
func (p *preemptor) sleepUntil(start time.Time, at time.Duration) bool {
	wait := p.clk.ToWall(at) - p.clk.Now().Sub(start)
	if wait <= 0 {
		return true
	}
	select {
	case <-time.After(wait):
		return true
	case <-p.stop:
		return false
	}
}

func (p *preemptor) run() {
	defer p.wg.Done()
	start := p.clk.Now()
	for _, ev := range p.trace.Events {
		if !p.sleepUntil(start, ev.At) {
			return
		}
		v := p.prov.victim()
		if v == nil {
			p.logf("preemptor: %s revocation at %v skipped, no live spot worker", p.trace.Site, ev.At)
			continue
		}
		if ev.Warned() {
			p.logf("preemptor: %s spot worker warned, %v to drain", p.trace.Site, ev.Warning)
			v.PreemptWarn(ev.Warning)
			p.note(func(r *metrics.PreemptionReport) { r.Revocations++; r.Warned++ })
			p.head.NoteRevocation(p.trace.Site, 1, true)
			// The kill lands when the warning window closes, whether or
			// not the drain finished; a run that ends first leaves the
			// kill moot but the drain outcome still counts.
			p.wg.Add(1)
			go func(v *Slave, warning time.Duration) {
				defer p.wg.Done()
				select {
				case <-time.After(p.clk.ToWall(warning)):
					v.Kill()
				case <-p.stop:
				}
				p.note(func(r *metrics.PreemptionReport) {
					if v.DrainFlushed() {
						r.DrainsCompleted++
					} else {
						r.DrainsAborted++
					}
				})
			}(v, ev.Warning)
		} else {
			p.logf("preemptor: %s spot worker revoked without warning", p.trace.Site)
			v.Kill()
			p.note(func(r *metrics.PreemptionReport) { r.Revocations++; r.Unwarned++ })
			p.head.NoteRevocation(p.trace.Site, 1, false)
		}
	}
}

func (p *preemptor) note(f func(*metrics.PreemptionReport)) {
	p.mu.Lock()
	f(&p.rep)
	p.mu.Unlock()
}

// halt stops the event loop and pending kills, then returns the
// trace-side tallies.
func (p *preemptor) halt() metrics.PreemptionReport {
	close(p.stop)
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rep
}

// Run executes one complete job: it starts the head, masters, and
// slaves, processes every chunk of the index, performs local and
// global reductions, and returns the merged result and the run report.
func Run(cfg DeployConfig) (*RunResult, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("cluster: deployment needs at least one site")
	}
	if cfg.Clock == nil {
		cfg.Clock = netsim.Instant()
	}
	if _, err := resolveSyncMode(cfg.SyncMode); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var ctrl *elastic.Controller
	var prov *provisioner
	if cfg.Elastic != nil {
		ecfg := *cfg.Elastic
		if ecfg.Workers == nil {
			ecfg.Workers = make(map[string]int, len(cfg.Sites))
			for _, s := range cfg.Sites {
				ecfg.Workers[s.Name] = s.Cores
			}
		}
		if ecfg.Logf == nil {
			ecfg.Logf = cfg.Logf
		}
		ctrl = elastic.New(ecfg)
		prov = &provisioner{
			clock: cfg.Clock, boot: ecfg.BootLatency, logf: logf,
			ready: make(chan struct{}), halted: make(chan struct{}),
		}
	}
	if cfg.Revocations != nil && len(cfg.Revocations.Events) > 0 && prov == nil {
		return nil, fmt.Errorf("cluster: revocation trace needs elastic provisioning (no spot workers without it)")
	}

	head, err := NewHead(HeadConfig{
		App: cfg.App, Index: cfg.Index, Clusters: len(cfg.Sites),
		Scatter: cfg.Scatter, Clock: cfg.Clock, Logf: cfg.Logf,
		SyncMode: cfg.SyncMode, MergeCost: cfg.MergeCost,
		HeartbeatInterval: cfg.HeartbeatInterval, HeartbeatMisses: cfg.HeartbeatMisses,
		Elastic: ctrl, ScaleUp: func() func(string, int, bool) {
			if prov == nil {
				return nil
			}
			return prov.ScaleUp
		}(),
	})
	if err != nil {
		return nil, err
	}
	headLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	head.Serve(headLn)
	headAddr := headLn.Addr().String()

	result := &RunResult{PerSiteFinal: make(map[string]gr.Reduction)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var slaves []*Slave // every static slave (hint-waste folding)
	// bufferState tracks each site's burst buffer for post-run stats
	// folding and (for per-run buffers) draining. startBacking remembers
	// the backing-bytes counter at run start, so a persistent buffer
	// carried across iterations contributes only this run's delta.
	type bufferState struct {
		buf          *store.SiteBuffer
		perRun       bool
		startBacking int64
	}
	var buffers []bufferState
	errs := make(chan error, 2*len(cfg.Sites))

	for _, site := range cfg.Sites {
		// A persistent site cache brings its own pool (so recycled
		// buffers keep flowing across iterations); otherwise the slave
		// gets a per-run pool, and a per-run cache when CacheBytes asks
		// for one.
		cache := site.Cache
		pool := cache.Pool()
		if pool == nil {
			pool = store.NewBufferPool()
		}
		if cache == nil && cfg.CacheBytes > 0 {
			cache = store.NewChunkCache(cfg.CacheBytes, pool)
		}
		// The burst buffer follows the same persistence rule. Only
		// HomeFetch sites get one: it fronts the site's own object
		// store, which local-disk sites do not have.
		buffer := site.Buffer
		perRunBuffer := false
		if buffer == nil && cfg.BufferBytes > 0 && site.HomeFetch {
			fetch := cfg.Fetch.WithDefaultSizes()
			fetch.Clock = cfg.Clock
			buffer = store.NewSiteBuffer(store.SiteBufferConfig{
				Site: site.Name, Backing: site.HomeStore, Capacity: cfg.BufferBytes,
				Fetch: fetch, Pool: pool, Autotune: cfg.FetchAutotune,
			})
			perRunBuffer = true
		}
		if buffer != nil {
			buffers = append(buffers, bufferState{
				buf: buffer, perRun: perRunBuffer,
				startBacking: buffer.Stats().BackingBytes,
			})
		}

		masterCfg := MasterConfig{
			Site: site.Name, App: cfg.App, Cores: site.Cores, Slaves: site.Cores,
			Batch: cfg.Batch, Watermark: cfg.Watermark, HintDepth: cfg.HintDepth,
			Clock: cfg.Clock, Logf: cfg.Logf,
			HeartbeatInterval: cfg.HeartbeatInterval, HeartbeatMisses: cfg.HeartbeatMisses,
			StageBudget: cfg.StageBudget,
			SyncMode:    cfg.SyncMode,
			MergeCost:   cfg.MergeCost,
		}
		if buffer != nil {
			// Typed-nil care: assign the interface only when a buffer
			// exists, so Buffer == nil stays a valid "no staging" check.
			masterCfg.Buffer = buffer
		}
		master, err := NewMaster(masterCfg)
		if err != nil {
			headLn.Close()
			return nil, err
		}
		masterLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			headLn.Close()
			return nil, err
		}
		headShaper := netsim.NewShaper(cfg.Clock, site.HeadLink)
		slaveShaper := netsim.NewShaper(cfg.Clock, site.SlaveLink)

		wg.Add(1)
		go func(site SiteSpec) {
			defer wg.Done()
			final, err := master.Run(headAddr, headShaper.DialerBoth(), masterLn)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			result.PerSiteFinal[site.Name] = final
			mu.Unlock()
		}(site)

		slaveCfg := SlaveConfig{
			Site: site.Name, App: cfg.App, Cores: site.Cores,
			HomeStore: site.HomeStore, RemoteStores: site.RemoteStores,
			Fetch: cfg.Fetch, FetchAutotune: cfg.FetchAutotune,
			GroupUnits:     cfg.GroupUnits,
			JobsPerRequest: cfg.JobsPerRequest,
			HomeFetch:      site.HomeFetch, UnitCostScale: site.UnitCostScale,
			CostJitter: site.CostJitter,
			Prefetch:   cfg.Prefetch, PrefetchBudget: cfg.PrefetchBudget,
			Cache: cache, Pool: pool,
			CheckpointJobs:    cfg.CheckpointJobs,
			HeartbeatInterval: cfg.HeartbeatInterval,
			SyncMode:          cfg.SyncMode,
			Clock:             cfg.Clock, Logf: cfg.Logf,
		}
		if buffer != nil {
			slaveCfg.Buffer = buffer
		}
		slave, err := NewSlave(slaveCfg)
		if err != nil {
			headLn.Close()
			return nil, err
		}
		slaves = append(slaves, slave)
		wg.Add(1)
		go func(site SiteSpec, addr string) {
			defer wg.Done()
			if _, err := slave.Run(addr, store.Dialer(slaveShaper.DialerBoth())); err != nil {
				errs <- err
			}
		}(site, masterLn.Addr().String())

		// The elastic site's provisioner spawns 1-core join slaves with the
		// site's slave config, so they share its cache, pool, buffer and
		// shaped master link.
		if prov != nil && site.Name == cfg.Elastic.Site {
			spawnCfg := slaveCfg
			spawnCfg.Cores, spawnCfg.Join = 1, true
			masterAddr := masterLn.Addr().String()
			dial := store.Dialer(slaveShaper.DialerBoth())
			revoking := cfg.Revocations != nil && len(cfg.Revocations.Events) > 0
			prov.mu.Lock()
			prov.spawn = func(onDemand bool) error {
				js, err := NewSlave(spawnCfg)
				if err != nil {
					return err
				}
				prov.mu.Lock()
				prov.slaves = append(prov.slaves, js)
				prov.mu.Unlock()
				if revoking && !onDemand {
					prov.addRevocable(js)
					defer prov.dropRevocable(js)
				}
				_, err = js.Run(masterAddr, dial)
				return err
			}
			prov.mu.Unlock()
			close(prov.ready) // release early warm-start boots
		}
	}
	if prov != nil && prov.spawn == nil {
		headLn.Close()
		return nil, fmt.Errorf("cluster: elastic site %q not in deployment", cfg.Elastic.Site)
	}
	var pre *preemptor
	if cfg.Revocations != nil && len(cfg.Revocations.Events) > 0 {
		pre = newPreemptor(cfg.Clock, cfg.Revocations, prov, head, logf)
	}

	report, final, err := head.Wait()
	var preRep metrics.PreemptionReport
	if pre != nil {
		preRep = pre.halt()
	}
	if prov != nil {
		prov.stop()
		prov.wg.Wait()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		// Revoked workers died on schedule; their work recovers through
		// checkpoint adoption and re-execution, not by failing the run.
		if err == nil && !errors.Is(e, ErrRevoked) {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}
	if preRep.Revocations > 0 && report != nil {
		// Graft the trace-side tallies onto the counter-derived report
		// the head assembled (created here when no counters fired).
		if report.Preemption == nil {
			report.Preemption = &metrics.PreemptionReport{}
		}
		report.Preemption.Revocations = preRep.Revocations
		report.Preemption.Warned = preRep.Warned
		report.Preemption.Unwarned = preRep.Unwarned
		report.Preemption.DrainsCompleted = preRep.DrainsCompleted
		report.Preemption.DrainsAborted = preRep.DrainsAborted
	}
	result.Report = report
	result.Final = final
	if prov != nil {
		slaves = append(slaves, prov.slaves...)
		if report.Elastic != nil {
			report.Elastic.WastedBoots = prov.wasted
		}
	}
	// Hints the slaves warmed but never got granted are wasted remote
	// bytes; fold them into the retrieval report.
	for _, s := range slaves {
		chunks, bytes := s.HintWaste()
		report.Retrieval.WastedHints += chunks
		report.Retrieval.WastedWarmBytes += bytes
	}
	// The buffers' backing-store traffic is the run's true remote egress
	// through the buffer tier (everything above it was absorbed by
	// sharing); fold this run's delta in, then drain per-run buffers —
	// persistent ones stay warm for the driver's next iteration.
	for _, bs := range buffers {
		report.Retrieval.BufferBackingBytes += bs.buf.Stats().BackingBytes - bs.startBacking
		if bs.perRun {
			bs.buf.Drain()
		}
	}
	// Annotate core counts (the head does not know them).
	for i := range report.Clusters {
		for _, site := range cfg.Sites {
			if site.Name == report.Clusters[i].Site {
				report.Clusters[i].Cores = site.Cores
			}
		}
	}
	return result, nil
}
