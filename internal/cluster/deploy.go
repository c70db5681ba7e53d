package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
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

	// Batch tunes master refills; GroupUnits the engine's cache group;
	// JobsPerRequest the slave's request size; Fetch the remote
	// retrieval. Zero values pick defaults.
	Batch          int
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

	// spawn boots one join slave; install sets it while the deployment
	// is built, before the head can ask for a boot.
	spawn   func(onDemand bool) error
	stopped atomic.Bool // set when the run ends: later boots are wasted

	mu        sync.Mutex
	slaves    []*Slave // every provisioned slave (hint-waste folding)
	revocable []*Slave // live spot join slaves (preemption victims)
	wasted    int      // boots that arrived after the run ended
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
			if p.stopped.Load() {
				p.noteWasted()
				return
			}
			if err := p.spawn(onDemand); err != nil && !errors.Is(err, ErrRevoked) {
				p.noteWasted()
				p.logf("provisioner: %s worker boot wasted: %v", site, err)
			}
		}()
	}
}

// dropRevocable removes a spot join slave from the preemption victims
// when it exits for any reason.
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

// install sets the spawn that boots a join slave from cfg against the
// elastic site's master. While revoking, a spot (not onDemand) worker
// is a preemption victim for as long as it runs.
func (p *provisioner) install(cfg SlaveConfig, masterAddr string, dial store.Dialer, revoking bool) {
	p.spawn = func(onDemand bool) error {
		js, err := NewSlave(cfg)
		if err != nil {
			return err
		}
		p.mu.Lock()
		p.slaves = append(p.slaves, js)
		if revoking && !onDemand {
			p.revocable = append(p.revocable, js)
			defer p.dropRevocable(js)
		}
		p.mu.Unlock()
		_, err = js.Run(masterAddr, dial)
		return err
	}
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
	d, err := build(cfg)
	if err != nil {
		return nil, err
	}
	d.start()
	report, final, err := d.wait()
	if err != nil {
		return nil, err
	}
	return d.collect(report, final), nil
}

// deployment is one Run, in four phases: build wires every component
// without starting a goroutine, so a configuration error leaves
// nothing running; start launches them; wait joins them once the head
// finishes; collect folds the per-site tallies into the report.
type deployment struct {
	cfg    DeployConfig
	head   *Head
	headLn net.Listener
	prov   *provisioner // nil unless elastic
	sites  []*siteRun

	pre    *preemptor // started with the run when a revocation trace is set
	preRep metrics.PreemptionReport
	wg     sync.WaitGroup
	errs   chan error
}

// siteRun is one site of a deployment: its master and static slave and
// the listener and shaped links that connect them.
type siteRun struct {
	spec                    SiteSpec
	master                  *Master
	slave                   *Slave
	masterLn                net.Listener
	headShaper, slaveShaper *netsim.Shaper
	final                   gr.Reduction // the master's copy, once it returns
	// buffer is the site's burst buffer, if any. A per-run buffer is
	// drained when the run completes; startBacking is the backing-bytes
	// counter at build time, so a persistent buffer carried across
	// iterations contributes only this run's delta.
	buffer       *store.SiteBuffer
	perRunBuffer bool
	startBacking int64
}

// build validates cfg and constructs the head, the elastic controller
// and provisioner, and every site. On error it closes the listeners it
// opened; nothing has started.
func build(cfg DeployConfig) (*deployment, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("cluster: deployment needs at least one site")
	}
	if cfg.Clock == nil {
		cfg.Clock = netsim.Instant()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if _, err := resolveSyncMode(cfg.SyncMode); err != nil {
		return nil, err
	}
	d := &deployment{cfg: cfg, errs: make(chan error, 2*len(cfg.Sites))}
	hcfg := HeadConfig{
		App: cfg.App, Index: cfg.Index, Clusters: len(cfg.Sites),
		Scatter: cfg.Scatter, Clock: cfg.Clock, Logf: cfg.Logf,
		SyncMode: cfg.SyncMode, MergeCost: cfg.MergeCost,
		HeartbeatInterval: cfg.HeartbeatInterval, HeartbeatMisses: cfg.HeartbeatMisses,
	}
	if cfg.Elastic != nil {
		if !slices.ContainsFunc(cfg.Sites, func(s SiteSpec) bool { return s.Name == cfg.Elastic.Site }) {
			return nil, fmt.Errorf("cluster: elastic site %q not in deployment", cfg.Elastic.Site)
		}
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
		hcfg.Elastic = elastic.New(ecfg)
		d.prov = &provisioner{clock: cfg.Clock, boot: ecfg.BootLatency, logf: cfg.Logf}
		hcfg.ScaleUp = d.prov.ScaleUp
	} else if cfg.Revocations != nil && len(cfg.Revocations.Events) > 0 {
		return nil, fmt.Errorf("cluster: revocation trace needs elastic provisioning (no spot workers without it)")
	}
	var err error
	if d.head, err = NewHead(hcfg); err != nil {
		return nil, err
	}
	if d.headLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	for _, spec := range cfg.Sites {
		s, err := d.buildSite(spec)
		if err != nil {
			d.headLn.Close()
			for _, built := range d.sites {
				built.masterLn.Close()
			}
			return nil, err
		}
		d.sites = append(d.sites, s)
	}
	return d, nil
}

// buildSite constructs one site's cache, buffer pool, burst buffer,
// master, slave, listener and shaped links; for the elastic site it
// also installs the provisioner's spawn.
func (d *deployment) buildSite(spec SiteSpec) (*siteRun, error) {
	cfg := d.cfg
	s := &siteRun{spec: spec, buffer: spec.Buffer}
	// A persistent site cache brings its own pool (so recycled buffers
	// keep flowing across iterations); otherwise the slave gets a
	// per-run pool, and a per-run cache when CacheBytes asks for one.
	cache := spec.Cache
	pool := cache.Pool()
	if pool == nil {
		pool = store.NewBufferPool()
	}
	if cache == nil && cfg.CacheBytes > 0 {
		cache = store.NewChunkCache(cfg.CacheBytes, pool)
	}
	// The burst buffer follows the same persistence rule. Only HomeFetch
	// sites get one: it fronts the site's own object store, which
	// local-disk sites do not have.
	if s.buffer == nil && cfg.BufferBytes > 0 && spec.HomeFetch {
		fetch := cfg.Fetch.WithDefaultSizes()
		fetch.Clock = cfg.Clock
		s.buffer = store.NewSiteBuffer(store.SiteBufferConfig{
			Site: spec.Name, Backing: spec.HomeStore, Capacity: cfg.BufferBytes,
			Fetch: fetch, Pool: pool, Autotune: cfg.FetchAutotune,
		})
		s.perRunBuffer = true
	}
	masterCfg := MasterConfig{
		Site: spec.Name, App: cfg.App, Cores: spec.Cores, Slaves: spec.Cores,
		Batch: cfg.Batch, HintDepth: cfg.HintDepth, Clock: cfg.Clock, Logf: cfg.Logf,
		HeartbeatInterval: cfg.HeartbeatInterval, HeartbeatMisses: cfg.HeartbeatMisses,
		StageBudget: cfg.StageBudget, SyncMode: cfg.SyncMode, MergeCost: cfg.MergeCost,
	}
	slaveCfg := SlaveConfig{
		Site: spec.Name, App: cfg.App, Cores: spec.Cores,
		HomeStore: spec.HomeStore, RemoteStores: spec.RemoteStores,
		Fetch: cfg.Fetch, FetchAutotune: cfg.FetchAutotune,
		GroupUnits: cfg.GroupUnits, JobsPerRequest: cfg.JobsPerRequest,
		HomeFetch: spec.HomeFetch, UnitCostScale: spec.UnitCostScale, CostJitter: spec.CostJitter,
		Prefetch: cfg.Prefetch, PrefetchBudget: cfg.PrefetchBudget,
		Cache: cache, Pool: pool, CheckpointJobs: cfg.CheckpointJobs,
		HeartbeatInterval: cfg.HeartbeatInterval, SyncMode: cfg.SyncMode,
		Clock: cfg.Clock, Logf: cfg.Logf,
	}
	if s.buffer != nil {
		// Typed-nil care: assign the interfaces only when a buffer
		// exists, so Buffer == nil stays a valid "no buffer" check.
		masterCfg.Buffer, slaveCfg.Buffer = s.buffer, s.buffer
		s.startBacking = s.buffer.Stats().BackingBytes
	}
	var err error
	if s.master, err = NewMaster(masterCfg); err != nil {
		return nil, err
	}
	if s.slave, err = NewSlave(slaveCfg); err != nil {
		return nil, err
	}
	if s.masterLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.headShaper = netsim.NewShaper(cfg.Clock, spec.HeadLink)
	s.slaveShaper = netsim.NewShaper(cfg.Clock, spec.SlaveLink)
	if d.prov != nil && spec.Name == cfg.Elastic.Site {
		// The provisioner's 1-core join slaves share the site's cache,
		// pool, buffer and shaped master link.
		slaveCfg.Cores, slaveCfg.Join = 1, true
		d.prov.install(slaveCfg, s.masterLn.Addr().String(), store.Dialer(s.slaveShaper.DialerBoth()),
			cfg.Revocations != nil && len(cfg.Revocations.Events) > 0)
	}
	return s, nil
}

// start serves the head, then runs every site's master and slave, and
// paces the revocation trace if one is set.
func (d *deployment) start() {
	d.head.Serve(d.headLn)
	headAddr := d.headLn.Addr().String()
	for _, s := range d.sites {
		d.wg.Add(2)
		go func() {
			defer d.wg.Done()
			var err error
			if s.final, err = s.master.Run(headAddr, s.headShaper.DialerBoth(), s.masterLn); err != nil {
				d.errs <- err
			}
		}()
		go func() {
			defer d.wg.Done()
			if _, err := s.slave.Run(s.masterLn.Addr().String(), store.Dialer(s.slaveShaper.DialerBoth())); err != nil {
				d.errs <- err
			}
		}()
	}
	if d.cfg.Revocations != nil && len(d.cfg.Revocations.Events) > 0 {
		d.pre = newPreemptor(d.cfg.Clock, d.cfg.Revocations, d.prov, d.head, d.cfg.Logf)
	}
}

// wait blocks until the head finishes, then stops the preemptor and
// the provisioner and joins every master and slave. It returns the
// head's outcome, or else the first error a site reported.
func (d *deployment) wait() (*metrics.RunReport, gr.Reduction, error) {
	report, final, err := d.head.Wait()
	if d.pre != nil {
		d.preRep = d.pre.halt()
	}
	if d.prov != nil {
		d.prov.stopped.Store(true)
		d.prov.wg.Wait()
	}
	d.wg.Wait()
	close(d.errs)
	for e := range d.errs {
		// Revoked workers died on schedule; their work recovers through
		// checkpoint adoption and re-execution, not by failing the run.
		if err == nil && !errors.Is(e, ErrRevoked) {
			err = e
		}
	}
	return report, final, err
}

// collect completes the head's report with what only the deployment
// knows: the preemption trace's tallies, wasted boots, wasted hints,
// burst-buffer egress and each site's core count.
func (d *deployment) collect(report *metrics.RunReport, final gr.Reduction) *RunResult {
	if rep := d.preRep; rep.Revocations > 0 {
		// Graft the trace-side tallies onto the counter-derived report
		// the head assembled (created here when no counters fired).
		if report.Preemption == nil {
			report.Preemption = &metrics.PreemptionReport{}
		}
		p := report.Preemption
		p.Revocations, p.Warned, p.Unwarned = rep.Revocations, rep.Warned, rep.Unwarned
		p.DrainsCompleted, p.DrainsAborted = rep.DrainsCompleted, rep.DrainsAborted
	}
	res := &RunResult{Report: report, Final: final, PerSiteFinal: make(map[string]gr.Reduction)}
	var slaves []*Slave
	for _, s := range d.sites {
		res.PerSiteFinal[s.spec.Name] = s.final
		slaves = append(slaves, s.slave)
		// The buffer's backing-store traffic is the run's true remote
		// egress through the buffer tier (everything above it was
		// absorbed by sharing); fold this run's delta in, then drain a
		// per-run buffer — a persistent one stays warm for the driver's
		// next iteration.
		if s.buffer != nil {
			report.Retrieval.BufferBackingBytes += s.buffer.Stats().BackingBytes - s.startBacking
			if s.perRunBuffer {
				s.buffer.Drain()
			}
		}
		for i := range report.Clusters { // the head does not know core counts
			if report.Clusters[i].Site == s.spec.Name {
				report.Clusters[i].Cores = s.spec.Cores
			}
		}
	}
	if d.prov != nil {
		slaves = append(slaves, d.prov.slaves...)
		if report.Elastic != nil {
			report.Elastic.WastedBoots = d.prov.wasted
		}
	}
	// Hints the slaves warmed but never got granted are wasted remote
	// bytes; fold them into the retrieval report.
	for _, s := range slaves {
		chunks, bytes := s.HintWaste()
		report.Retrieval.WastedHints += chunks
		report.Retrieval.WastedWarmBytes += bytes
	}
	return res
}
