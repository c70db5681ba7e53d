// Package cluster implements the paper's three-tier runtime (Section
// III-B): the head node owns the global job pool and the final global
// reduction; one master per cluster pulls job batches from the head on
// demand and feeds its slaves; slaves retrieve chunk data (sequential
// local reads, multi-threaded remote fetches for stolen jobs) and run
// local reduction on paced virtual cores.
package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cloudburst/internal/chunk"
	"cloudburst/internal/elastic"
	"cloudburst/internal/gr"
	"cloudburst/internal/metrics"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
	"cloudburst/internal/wire"
)

// HeadConfig configures a head node run.
type HeadConfig struct {
	// App is the application whose reduction objects the head merges.
	App gr.App
	// Index describes the data set; the head builds its job pool from it.
	Index *chunk.Index
	// Clusters is the number of masters expected to register.
	Clusters int
	// Scatter disables the consecutive-job assignment optimization
	// (ablation knob; see chunk.PoolOptions).
	Scatter bool
	// Clock converts measured wall time back to emulated durations.
	Clock netsim.Clock
	// HeartbeatInterval, when positive, requires each registered master
	// to show traffic (requests or heartbeats) at least every
	// HeartbeatInterval * HeartbeatMisses; a silent master is declared
	// stalled and its cluster re-executed elsewhere.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent intervals count as a stall
	// (default 3).
	HeartbeatMisses int
	// Elastic, when set, watches per-site completion rates against the
	// configured deadline and issues scale decisions for its site. The
	// head applies them: scale-ups go to the ScaleUp callback (the
	// provisioner boots new slaves that join the site's master), and
	// scale-downs are pushed to the site's master as KindScale, which
	// drains the surplus workers.
	Elastic *elastic.Controller
	// ScaleUp provisions n additional workers for site; nil ignores
	// scale-up decisions. It must not block. onDemand is true when the
	// controller has fallen back to the non-revocable tier after repeated
	// spot revocations — the provisioner must exempt those workers from
	// the revocation trace.
	ScaleUp func(site string, n int, onDemand bool)
	// Pool recycles wire encode/frame buffers on master connections
	// (default: a fresh BufferPool).
	Pool *store.BufferPool
	// SyncMode selects the global-reduction strategy: how cluster
	// results arrive (streamed parts vs single frames), how they merge
	// (as each cluster finishes vs after the all-clusters barrier), and
	// how the final gets back to the masters (monolithic broadcasts it;
	// streamed-parallel runs the exchange, see partialSend). Empty picks
	// streamed-parallel.
	SyncMode string
	// MergeCost charges each global-reduction fold an emulated duration
	// per byte of the folded object (see gr.MergerOptions.CostPerByte);
	// zero charges nothing.
	MergeCost time.Duration
	// Logf receives progress logging; nil silences it.
	Logf func(format string, args ...any)
}

// Head is the head node: it assigns jobs to requesting clusters
// (locality first, then stealing from the least-contended remote
// file), collects per-cluster reduction objects, and produces the
// final result.
type Head struct {
	cfg  HeadConfig
	pool *chunk.Pool
	plan syncPlan

	// merger runs the availability-driven global reduction under a
	// streamed plan: each cluster's object merges as it arrives, so a
	// fast cluster's merge hides behind a slow cluster's WAN transfer.
	// Monolithic mode accumulates objects and merges after the barrier.
	merger *gr.Merger
	// adds tracks streamed-plan merger.Add calls still in flight, so the
	// partial's Finish covers every cluster that delivered before it.
	adds sync.WaitGroup

	mu          sync.Mutex
	started     time.Time
	joined      map[string]time.Time // site -> registration
	arrivals    map[string]time.Time // site -> cluster-result arrival
	stats       map[string]wire.Stats
	objects     []gr.Reduction // monolithic mode only; streamed feeds merger
	partial     *partialSend   // streamed plan: the exchange, once a laggard is elected
	laggardObj  gr.Reduction   // the laggard's own result, folded last
	registered  int
	expected    int // clusters still expected to deliver a result
	lastArrival time.Time
	sendsDone   int
	broadcastT  time.Time // when the last master acked the final
	mergeEmu    time.Duration
	faults      metrics.Breakdown // the head's own stall detections, object streams and merges

	// mergeReady is closed when the global reduction has produced the
	// final object (or failed); handlers then deliver it.
	mergeReady chan struct{}
	mergeOnce  sync.Once
	finalObj   gr.Reduction
	finalEnc   []byte // monolithic broadcast; streamed re-encodes per master
	runErr     error

	resultOnce sync.Once
	resultCh   chan headResult

	// conns tracks each registered master's connection so scale-down
	// pushes can reach the right site without holding mu during sends.
	conns map[string]*wire.Conn
	// progress holds each site's advisory completion gauge (the live
	// feed for the elastic controller) and totalJobs the pool size it
	// is measured against.
	progress  map[string]int
	totalJobs int

	wg sync.WaitGroup
	ln net.Listener
}

type headResult struct {
	report *metrics.RunReport
	final  gr.Reduction
	err    error
}

// NewHead builds a head node.
func NewHead(cfg HeadConfig) (*Head, error) {
	if cfg.App == nil || cfg.Index == nil {
		return nil, fmt.Errorf("cluster: head needs an app and an index")
	}
	if cfg.Clusters <= 0 {
		return nil, fmt.Errorf("cluster: head needs a positive cluster count")
	}
	if cfg.Clock == nil {
		cfg.Clock = netsim.Instant()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.HeartbeatMisses < 1 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.Pool == nil {
		cfg.Pool = store.NewBufferPool()
	}
	plan, err := resolveSyncMode(cfg.SyncMode)
	if err != nil {
		return nil, err
	}
	h := &Head{
		cfg:        cfg,
		plan:       plan,
		pool:       chunk.NewPoolWith(cfg.Index, chunk.PoolOptions{Scatter: cfg.Scatter}),
		expected:   cfg.Clusters,
		joined:     make(map[string]time.Time),
		arrivals:   make(map[string]time.Time),
		stats:      make(map[string]wire.Stats),
		mergeReady: make(chan struct{}),
		resultCh:   make(chan headResult, 1),
		conns:      make(map[string]*wire.Conn),
		progress:   make(map[string]int),
	}
	h.merger = gr.NewMerger(cfg.App, gr.MergerOptions{
		Mode: plan.merge(), Workers: mergeWorkers,
		Clock: cfg.Clock, CostPerByte: cfg.MergeCost,
	})
	return h, nil
}

// Serve accepts master connections on l until the run completes.
func (h *Head) Serve(l net.Listener) {
	h.mu.Lock()
	h.ln = l
	h.started = h.cfg.Clock.Now()
	h.totalJobs = h.pool.Remaining()
	h.mu.Unlock()
	if h.cfg.Elastic != nil {
		// The controller sizes the scaled site against its own backlog,
		// so it needs the pool's per-home-site job composition.
		idx := h.pool.Index()
		byHome := make(map[string]int)
		for _, c := range idx.Chunks {
			byHome[idx.Files[c.File].Site]++
		}
		// A warm-started controller (advisor-seeded) may command its
		// first boot immediately; apply it like any mid-run decision.
		h.apply(h.cfg.Elastic.Start(h.totalJobs, byHome))
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				wc := wire.NewConn(conn)
				wc.SetBufferPool(h.cfg.Pool)
				if err := h.handleMaster(wc); err != nil {
					h.fail(err)
				}
			}()
		}
	}()
}

// Wait blocks until the run completes, returning the run report and
// the final reduction object. Wait may be called repeatedly.
func (h *Head) Wait() (*metrics.RunReport, gr.Reduction, error) {
	res := <-h.resultCh
	h.resultCh <- res
	if h.ln != nil {
		h.ln.Close()
	}
	return res.report, res.final, res.err
}

func (h *Head) fail(err error) {
	// Release any handlers blocked waiting for the merge so they can
	// observe the failure instead of hanging.
	h.mu.Lock()
	if h.runErr == nil {
		h.runErr = err
	}
	h.mu.Unlock()
	h.mergeOnce.Do(func() { close(h.mergeReady) })
	h.resultOnce.Do(func() {
		h.resultCh <- headResult{err: err}
	})
}

// handleMaster drives one master connection through the protocol:
// register -> (request-jobs)* -> cluster-result -> final.
func (h *Head) handleMaster(c *wire.Conn) error {
	defer c.Close()
	addr := c.RemoteAddr()
	reg, err := c.Recv()
	if err != nil {
		return fmt.Errorf("cluster: head: master %v register: %w", addr, err)
	}
	if reg.Kind != wire.KindRegisterMaster || reg.Site == "" {
		return fmt.Errorf("cluster: head: master %v: expected register-master, got %v", addr, reg.Kind)
	}
	site := reg.Site
	// oc incrementally decodes the site's streamed cluster result.
	oc := objectCollector{app: h.cfg.App, conn: c}
	defer oc.abort(fmt.Errorf("cluster: head: master %s connection closed mid-stream", site))
	h.mu.Lock()
	h.registered++
	n := h.registered
	h.mu.Unlock()
	if n > h.cfg.Clusters {
		return fmt.Errorf("cluster: head: unexpected extra master %q (%v)", site, addr)
	}
	h.cfg.Logf("head: master %s registered (%d cores)", site, reg.Cores)
	if err := c.Send(&wire.Message{Kind: wire.KindAck}); err != nil {
		return err
	}
	// Published only after the ack: a partial stream must never overtake
	// the registration reply on this connection.
	h.mu.Lock()
	h.conns[site] = c
	h.joined[site] = h.cfg.Clock.Now()
	h.electLaggard()
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		if h.conns[site] == c {
			delete(h.conns, site)
		}
		h.mu.Unlock()
	}()
	if h.cfg.HeartbeatInterval > 0 {
		window := h.cfg.HeartbeatInterval * time.Duration(h.cfg.HeartbeatMisses)
		c.SetIdleTimeout(window)
		c.SetWriteTimeout(window)
	}

	for {
		req, err := c.Recv()
		if err != nil {
			if wire.IsTimeout(err) {
				// Open connection, silent master: a stall. Recovery is
				// identical to a crashed master.
				h.faults.CountHeartbeatMiss()
				h.cfg.Logf("head: master %s (%v) stalled (no traffic for %v), declaring lost",
					site, addr, h.cfg.HeartbeatInterval*time.Duration(h.cfg.HeartbeatMisses))
				err = fmt.Errorf("cluster: head: master %s (%v) heartbeat timeout: %w", site, addr, err)
			}
			// A master dying mid-run: requeue its outstanding jobs so
			// surviving clusters pick them up, and stop expecting a
			// result from this site (fault-tolerance extension; the
			// paper defers this).
			h.clusterLost(site, err)
			return nil
		}
		switch req.Kind {
		case wire.KindHeartbeat:
			continue // liveness only; Recv re-armed the idle deadline

		case wire.KindObjectPart:
			// One bounded frame of the site's streamed cluster result;
			// the collector decodes it while later parts cross the WAN.
			if err := oc.feed(req); err != nil {
				h.clusterLost(site, fmt.Errorf("cluster: head: %s object stream: %w", site, err))
				return nil
			}
			continue

		case wire.KindRequestJobs:
			if len(req.Completed) > 0 {
				if err := h.pool.Complete(req.Completed); err != nil {
					return err
				}
			}
			if req.Resident != nil {
				// The cluster's reported cache residency steers stealing:
				// thieves are granted this site's cold chunks first. An
				// empty report runs SetResident's delete path so a
				// drained cache sheds its stale warm set.
				h.pool.SetResident(site, req.Resident)
			}
			h.observe(site, req.Progress)
			grants := h.pool.Acquire(site, req.Max)
			resp := &wire.Message{Kind: wire.KindJobs, Done: len(grants) == 0}
			for _, g := range grants {
				ch := g.Chunk
				f := h.cfg.Index.Files[ch.File]
				resp.Jobs = append(resp.Jobs, wire.JobAssign{
					Chunk: ch.ID, File: f.Name, Offset: ch.Offset, Length: ch.Length,
					Units: ch.Units, HomeSite: f.Site, Stolen: g.Stolen,
				})
			}
			if err := c.Send(resp); err != nil {
				return err
			}

		case wire.KindClusterResult:
			if len(req.Completed) > 0 {
				if err := h.pool.Complete(req.Completed); err != nil {
					return err
				}
			}
			h.observe(site, req.Progress)
			obj, err := takeObject(h.cfg.App, &oc, req)
			if err != nil {
				return fmt.Errorf("cluster: head: decode %s result: %w", site, err)
			}
			if h.recordResult(site, obj, req.Stats) {
				h.merge()
			}
			<-h.mergeReady
			h.deliverFinal(c, site)
			return nil

		default:
			return fmt.Errorf("cluster: head: unexpected %v from %s", req.Kind, site)
		}
	}
}

// observe feeds a site's advisory progress gauge to the elastic controller
// and applies any scaling decisions: boots through the provisioner
// callback, drains as a KindScale push to the site's master. Pushes
// are best-effort — a master that dies before reading one takes the
// cluster-lost path anyway.
func (h *Head) observe(site string, gauge int) {
	ctrl := h.cfg.Elastic
	if ctrl == nil {
		return
	}
	h.mu.Lock()
	// The gauge is cumulative and advisory: take the max against what
	// the site already reported (messages can be reordered relative to
	// each other) and feed the controller the delta. Remaining work is
	// measured against the same gauges, not the pool's acked
	// completions — those are withheld until reduction objects land.
	prev := h.progress[site]
	if gauge < prev {
		gauge = prev
	}
	h.progress[site] = gauge
	delta := gauge - prev
	sum := 0
	for _, v := range h.progress {
		sum += v
	}
	remaining := h.totalJobs - sum
	elapsed := h.cfg.Clock.ToEmu(h.cfg.Clock.Now().Sub(h.started))
	h.mu.Unlock()
	h.apply(ctrl.Observe(site, delta, elapsed, remaining))
}

// apply executes a batch of elastic decisions: boots through the
// provisioner callback, drains as a KindScale push to the site's
// master.
func (h *Head) apply(decisions []elastic.Decision) {
	for _, d := range decisions {
		switch {
		case d.Delta > 0:
			h.cfg.Logf("head: elastic scale-up %s +%d -> %d (%s)", d.Site, d.Delta, d.Target, d.Reason)
			if h.cfg.ScaleUp != nil {
				h.cfg.ScaleUp(d.Site, d.Delta, d.OnDemand)
			}
		case d.Delta < 0:
			h.cfg.Logf("head: elastic scale-down %s %d -> %d (%s)", d.Site, d.Delta, d.Target, d.Reason)
			h.mu.Lock()
			c := h.conns[d.Site]
			h.mu.Unlock()
			if c != nil {
				_ = c.Send(&wire.Message{Kind: wire.KindScale, Site: d.Site, Target: d.Target})
			}
		}
	}
}

// NoteRevocation informs the elastic controller that n of site's spot
// workers were revoked (warned or not) and applies any replacement
// boots the controller issues. It is a no-op without a controller.
func (h *Head) NoteRevocation(site string, n int, warned bool) {
	ctrl := h.cfg.Elastic
	if ctrl == nil {
		return
	}
	h.mu.Lock()
	elapsed := h.cfg.Clock.ToEmu(h.cfg.Clock.Now().Sub(h.started))
	h.mu.Unlock()
	h.apply(ctrl.NoteRevocation(site, n, warned, elapsed))
}

// recordResult stores one cluster's result, returning true when every
// expected cluster has reported. Under a streamed plan the arrival is
// bookkept, the laggard re-evaluated, and the object's destination
// chosen in one critical section: the elected laggard's object is held
// for the final fold, every other object goes to the merger — counted
// in adds before the lock drops, so the partial's Finish waits for it.
func (h *Head) recordResult(site string, obj gr.Reduction, stats wire.Stats) bool {
	h.mu.Lock()
	if _, dup := h.arrivals[site]; dup {
		h.mu.Unlock()
		return false
	}
	now := h.cfg.Clock.Now()
	h.arrivals[site] = now
	if now.After(h.lastArrival) {
		h.lastArrival = now
	}
	h.stats[site] = stats
	feed := false
	switch {
	case !h.plan.streamed:
		h.objects = append(h.objects, obj)
	case h.partial != nil && h.partial.site == site:
		h.laggardObj = obj
	default:
		feed = true
		h.adds.Add(1)
	}
	h.electLaggard()
	ready := len(h.arrivals) == h.expected
	h.cfg.Logf("head: cluster %s finished (%d jobs)", site, stats.Breakdown.JobsProcessed)
	h.mu.Unlock()
	if feed {
		h.merger.Add(obj)
		h.adds.Done()
	}
	return ready
}

// clusterLost handles a master connection dying: if the cluster's
// result had not yet arrived, its outstanding jobs are requeued and
// the cluster is no longer expected (its result died with it). If it
// was the last expected cluster, the run fails.
func (h *Head) clusterLost(site string, cause error) {
	h.mu.Lock()
	if _, delivered := h.arrivals[site]; delivered {
		// The result is already safe; losing the connection while
		// broadcasting Final only means the master misses the final
		// object.
		h.mu.Unlock()
		h.broadcastDone()
		return
	}
	requeued := h.pool.RequeueSite(site)
	h.expected--
	delete(h.conns, site)
	// One fewer cluster to wait for may leave exactly one: the exchange
	// can start now. A lost laggard needs nothing — the others' merge it
	// was being sent is the final.
	h.electLaggard()
	remaining := h.expected
	ready := remaining > 0 && len(h.arrivals) == remaining
	h.cfg.Logf("head: cluster %s lost, %d jobs requeued, %d clusters remain (%v)",
		site, requeued, remaining, cause)
	h.mu.Unlock()
	if remaining <= 0 {
		h.fail(fmt.Errorf("cluster: head: all clusters lost: %w", cause))
		return
	}
	if ready {
		h.merge()
	}
	h.broadcastDone()
}

// partialSend is the head's half of the exchange under a streamed
// plan: the merge of every cluster but the last one still expected
// (the laggard), streamed down the laggard's connection while its own
// result is still uploading — the link's idle direction carries what
// the Final broadcast would otherwise send after the merge.
type partialSend struct {
	site   string // the laggard
	others int    // clusters delivered at election; 0 = nothing to send

	// merged is closed once obj, err and started are set.
	merged  chan struct{}
	obj     gr.Reduction // merge of the others; nil when there are none
	err     error        // that merge failed: the run fails
	started time.Time    // when the downlink began

	// sent is closed when the sender exits; sendErr is the laggard's
	// connection failing mid-stream.
	sent    chan struct{}
	sendErr error
}

// electLaggard (mu held) starts the exchange the moment exactly one
// still-expected cluster has not delivered. It runs on every
// registration, arrival and loss; the choice cannot change afterwards
// because every other expected cluster has already delivered. While
// the last master has not even registered there is no one to elect.
func (h *Head) electLaggard() {
	if !h.plan.streamed || h.partial != nil || h.expected-len(h.arrivals) != 1 {
		return
	}
	var site string
	pending := 0
	for s := range h.conns {
		if _, delivered := h.arrivals[s]; !delivered {
			site = s
			pending++
		}
	}
	if pending != 1 {
		return
	}
	h.partial = &partialSend{
		site: site, others: len(h.arrivals),
		merged: make(chan struct{}), sent: make(chan struct{}),
	}
	go h.sendPartial(h.partial, h.conns[site])
}

// sendPartial finishes the merge of the clusters that delivered and
// streams it to the laggard, closed by KindPartial. A lone cluster has
// nothing to receive: its own combine is the final. The goroutine ends
// with the stream, or with the laggard's connection.
func (h *Head) sendPartial(p *partialSend, c *wire.Conn) {
	defer close(p.sent)
	if p.others > 0 {
		h.adds.Wait()
		p.obj, _, p.err = h.merger.Finish()
	}
	p.started = h.cfg.Clock.Now()
	close(p.merged)
	if p.obj == nil {
		return
	}
	h.cfg.Logf("head: streaming the merge of %d cluster(s) to laggard %s", p.others, p.site)
	if p.sendErr = h.streamObject(c, p.obj); p.sendErr == nil {
		p.sendErr = c.Send(&wire.Message{Kind: wire.KindPartial})
	}
}

// streamObject ships obj down c in bounded parts: the encode pass
// writes straight into part frames, so the whole encoded object is
// never allocated. obj is only read.
func (h *Head) streamObject(c *wire.Conn, obj gr.Reduction) error {
	ow := wire.NewObjectWriter(c, 0)
	err := obj.Encode(ow)
	if err == nil {
		err = ow.Close()
	}
	if err == nil {
		h.faults.AddObjectStream(ow.Frames(), ow.Bytes(), int64(obj.Bytes()))
	}
	return err
}

// deliverFinal gets the merged result to one master and waits for its
// delivery ack. The transfer crosses the (shaped) inter-cluster link
// and its cost is part of the global reduction (Table II); the ack
// marks actual delivery — a plain Send would complete into the socket
// buffer long before the shaped link finished carrying the object.
// Monolithic ships the encoded object in the Final frame. Streamed
// plans stream it ahead of an object-less Final, except to the laggard,
// which already holds the others' merge and only needs Final to fold
// its own result in.
func (h *Head) deliverFinal(c *wire.Conn, site string) {
	h.mu.Lock()
	runErr, enc, final, p := h.runErr, h.finalEnc, h.finalObj, h.partial
	h.mu.Unlock()
	if runErr != nil {
		c.Send(&wire.Message{Kind: wire.KindError, Err: runErr.Error()})
		h.fail(runErr)
		return
	}
	var err error
	switch {
	case !h.plan.streamed:
		err = c.Send(&wire.Message{Kind: wire.KindFinal, Object: enc, Done: true})
	case p.site == site:
		<-p.sent
		err = p.sendErr
	default:
		err = h.streamObject(c, final)
	}
	if err == nil && h.plan.streamed {
		err = c.Send(&wire.Message{Kind: wire.KindFinal, Done: true})
	}
	var ack *wire.Message
	for err == nil {
		// Wait for the delivery ack, discarding any heartbeats the
		// master queued while the transfer was in flight.
		if ack, err = c.Recv(); err == nil && ack.Kind != wire.KindHeartbeat {
			break
		}
	}
	if err != nil {
		// The cluster's result is already merged; losing the
		// connection now only means it misses the final object.
		h.clusterLost(site, err)
		return
	}
	// The laggard's ack reports its own fold of the others' merge.
	b := ack.Stats.Breakdown
	h.faults.AddMerge(b.Merges, b.MergeBusyEmu, b.MergeTailEmu, b.MergeMaxPar)
	h.broadcastDone()
}

// merge runs the global reduction once all clusters have reported and
// releases the handlers to deliver the final object. Under a streamed
// plan everything but the laggard's result is already merged (and on
// its way down to the laggard), so one fold finishes it; monolithic
// pays the whole fold here, after the barrier.
func (h *Head) merge() {
	h.mu.Lock()
	p, own, held := h.partial, h.laggardObj, h.objects
	h.mu.Unlock()
	start := h.cfg.Clock.Now()
	var final gr.Reduction
	var err error
	if p != nil {
		<-p.merged
		final, err = p.obj, p.err
		switch {
		case err != nil || own == nil:
			// The laggard died: the others' merge is the final.
		case final == nil:
			final = own // lone cluster
		default:
			// The partial is only read — its sender may still be encoding it.
			err = h.merger.Fold(own, final)
			final = own
		}
	} else {
		for _, o := range held {
			if err = h.merger.Add(o); err != nil {
				break
			}
		}
		if err == nil {
			final, _, err = h.merger.Finish()
		}
	}
	mstats := h.merger.Stats()

	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		h.finalObj = final
		if !h.plan.streamed {
			h.finalEnc, err = gr.EncodeReduction(final)
		}
	}
	h.mergeEmu = h.cfg.Clock.ToEmu(h.cfg.Clock.Now().Sub(start))
	h.faults.AddMerge(mstats.Merges, h.cfg.Clock.ToEmu(mstats.Busy), h.mergeEmu, mstats.MaxParallel)
	if h.runErr == nil {
		h.runErr = err
	}
	h.mergeOnce.Do(func() { close(h.mergeReady) })
}

// broadcastDone is called as each handler's master acks the final; the
// last one assembles and publishes the run report.
func (h *Head) broadcastDone() {
	h.mu.Lock()
	h.sendsDone++
	now := h.cfg.Clock.Now()
	if now.After(h.broadcastT) {
		h.broadcastT = now
	}
	done := h.sendsDone == h.cfg.Clusters
	h.mu.Unlock()
	if done {
		h.publish()
	}
}

// publish assembles the final run report.
func (h *Head) publish() {
	h.mu.Lock()
	defer h.mu.Unlock()

	report := &metrics.RunReport{
		App: h.cfg.App.Name(),
		// Global reduction = in-memory merge plus getting the final
		// object back to every cluster.
		GlobalRed: h.mergeEmu + h.cfg.Clock.ToEmu(h.broadcastT.Sub(h.lastArrival)),
		TotalWall: h.cfg.Clock.ToEmu(h.broadcastT.Sub(h.started)),
	}
	// One run-wide sum feeds every counter section: the head's own
	// stall detections, object streams and merges, plus every surviving
	// cluster's snapshot. Senders alone count streamed bytes, so each
	// object is counted exactly once per hop.
	agg := h.faults.Snapshot()
	for site, t := range h.arrivals {
		st := h.stats[site]
		agg = agg.Add(st.Breakdown)
		wall := time.Duration(st.WallEmu)
		report.Clusters = append(report.Clusters, metrics.ClusterReport{
			Site:      site,
			Workers:   st.Breakdown,
			IdleAtEnd: h.cfg.Clock.ToEmu(h.lastArrival.Sub(t)),
			Wall:      wall,
			// The master stamps Wall before it ships, so what is left of
			// its registration-to-arrival span is the result's transfer.
			ResultShip: max(0, h.cfg.Clock.ToEmu(t.Sub(h.joined[site]))-wall),
		})
	}
	report.Faults = metrics.FaultReport{
		Retries:         agg.Retries,
		BackoffEmu:      agg.BackoffEmu,
		HeartbeatMisses: agg.HeartbeatMisses,
	}
	report.Retrieval.Snapshot = agg
	// Steal residency outcomes live in the head's pool, not in any
	// worker snapshot.
	report.Retrieval.StealsCold, report.Retrieval.StealsWarm = h.pool.StealStats()
	// The trace-side preemption tallies (revocations, drain outcomes)
	// are filled in by the deployment harness, which owns the
	// revocation schedule.
	pre := metrics.PreemptionReport{
		PreemptWarns:       agg.PreemptWarns,
		CheckpointsSent:    agg.Checkpoints,
		CheckpointsAdopted: agg.CheckpointsAdopted,
		JobsRecovered:      agg.JobsRecovered,
		JobsAbandoned:      agg.JobsAbandoned,
		JobsRequeued:       agg.JobsRequeued,
		CheckpointSkips:    agg.CheckpointSkips,
	}
	if pre.Any() {
		report.Preemption = &pre
	}
	sync := &metrics.SyncReport{
		Mode:            h.plan.name,
		Parts:           agg.ObjectParts,
		StreamedBytes:   agg.ObjectBytes,
		EstBytes:        agg.ObjectEstBytes,
		Merges:          agg.Merges,
		MergeBusyEmu:    agg.MergeBusyEmu,
		MergeTailEmu:    agg.MergeTailEmu,
		MaxParallel:     agg.MergeMaxPar,
		CheckpointSkips: agg.CheckpointSkips,
	}
	if p := h.partial; p != nil && p.obj != nil {
		sync.PartialSite = p.site
		if t, ok := h.arrivals[p.site]; ok {
			sync.PartialHiddenEmu = max(0, h.cfg.Clock.ToEmu(t.Sub(p.started)))
		}
	}
	if saved := sync.MergeBusyEmu - sync.MergeTailEmu; saved > 0 {
		// Merge work that ran while transfers were still in flight —
		// the barrier would have paid all of Busy after the last arrival.
		sync.OverlapSavedEmu = saved
	}
	report.Sync = sync
	if s, ok := h.cfg.App.(gr.Summarizer); ok {
		if digest, err := s.Summarize(h.finalObj); err == nil {
			report.FinalResult = digest
		}
	}
	if h.cfg.Elastic != nil {
		// Egress under the cost model is every byte retrieved across
		// sites (stolen-chunk reads), summed over all workers.
		report.Elastic = h.cfg.Elastic.Report(report.TotalWall, agg.BytesRemote)
	}
	err := h.runErr
	if err == nil && !h.pool.Done() {
		err = fmt.Errorf("cluster: head: run finished with %d jobs unaccounted", h.pool.Remaining())
	}
	final := h.finalObj
	h.resultOnce.Do(func() { h.resultCh <- headResult{report: report, final: final, err: err} })
}
