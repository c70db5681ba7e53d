package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cloudburst/internal/gr"
	"cloudburst/internal/metrics"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
	"cloudburst/internal/wire"
)

// MasterConfig configures one cluster's master node.
type MasterConfig struct {
	// Site is this cluster's name ("local", "cloud").
	Site string
	// App is the application (used to merge slave reduction objects).
	App gr.App
	// Cores is the cluster's total virtual core count (reported to the
	// head for logging; the slaves bring the actual workers).
	Cores int
	// Slaves is the number of slave nodes that will register; the
	// master finishes its local combine after hearing from all.
	Slaves int
	// Batch is how many jobs to request from the head per refill
	// (values below 1 default to 2x cores or 8); the master refills
	// whenever its queue drops below half a batch.
	Batch int
	// HintDepth piggybacks up to this many "likely next" jobs — the
	// front of the local queue — as prefetch hints on every job grant,
	// so slaves can warm their chunk cache deeper than one grant. Zero
	// disables hints. Hinted jobs may still be granted to a different
	// slave; every slave at a site shares one cache, so the warming
	// pays either way.
	HintDepth int
	// Clock converts wall time to emulated durations.
	Clock netsim.Clock
	// HeartbeatInterval, when positive, enables liveness: the master
	// heartbeats the head at this period and expects slave traffic
	// (requests or heartbeats) at least every HeartbeatInterval *
	// HeartbeatMisses. A slave that stays silent longer is declared
	// stalled and treated exactly like a dead one: its jobs requeue.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent intervals count as a stall
	// (default 3).
	HeartbeatMisses int
	// Pool recycles wire encode/frame buffers on the head and slave
	// connections (default: a fresh BufferPool).
	Pool *store.BufferPool
	// Buffer, when non-nil, is the site's burst-buffer staging hook:
	// every time queue-front hints go out with a grant, the master also
	// asks the buffer (asynchronously) to pull those chunks from the
	// backing store, so a slave's first read of an upcoming chunk finds
	// it already resident. Both *store.SiteBuffer and *store.Client
	// satisfy it.
	Buffer Stager
	// StageBudget caps the total bytes the master may stage into the
	// buffer over the run (0 = no staging budget, stage freely).
	StageBudget int64
	// SyncMode selects the reduction-synchronization strategy: how slave
	// objects arrive (streamed parts vs single frames), how they merge
	// into the local combine (availability-driven as each slave finishes
	// vs after the all-slaves barrier), and how the cluster result ships
	// to the head. Empty picks streamed-parallel.
	SyncMode string
	// MergeCost charges each local-combine fold an emulated duration
	// per byte of the folded object (see gr.MergerOptions.CostPerByte);
	// zero charges nothing.
	MergeCost time.Duration
	// Logf receives progress logging; nil silences it.
	Logf func(format string, args ...any)
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.HeartbeatMisses < 1 {
		c.HeartbeatMisses = 3
	}
	if c.Batch < 1 {
		c.Batch = 2 * c.Cores
		if c.Batch < 8 {
			c.Batch = 8
		}
	}
	if c.Clock == nil {
		c.Clock = netsim.Instant()
	}
	if c.Pool == nil {
		c.Pool = store.NewBufferPool()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Master manages one cluster: it keeps a local pool of jobs topped up
// from the head on demand (pooling-based load balancing) and serves
// them to requesting slaves; when the head's pool drains it collects
// slave reduction objects, combines them, and ships the cluster result
// to the head.
type Master struct {
	cfg  MasterConfig
	head *wire.Conn
	// headCh carries the head's replies from readHead, the one goroutine
	// that reads the head connection, to the protocol goroutine.
	headCh chan headReply
	plan   syncPlan

	// merger runs the availability-driven local combine under a streamed
	// plan: every delivered slave object is fed in as it arrives, so
	// merging overlaps the transfers still in flight. Monolithic mode
	// instead accumulates slaveObjs and merges after the barrier.
	merger *gr.Merger

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []wire.JobAssign
	completed []int32 // finished job ids not yet reported to the head
	headDone  bool
	failed    error
	expected  int  // slave results still awaited (starts at cfg.Slaves, grows on joins)
	finished  bool // doneCh delivered; later results are absorbed silently

	// Dynamic membership: conns tracks every registered slave
	// connection still in play; draining marks connections commanded to
	// retire whose results have not yet arrived. While any OTHER
	// connection is draining, end-of-run grants are held back — the
	// drain may return work to the queue, and handing out done=true
	// early would strand it.
	conns    map[*slaveConn]bool
	draining map[*slaveConn]bool
	// progress counts every slave-reported completion as it happens —
	// the advisory gauge piggybacked upstream for the head's grant cap
	// and the elastic controller. Unlike m.completed it is never
	// withheld: the head needs a live rate signal, and tolerates the
	// gauge's optimism about work a dying slave will end up redoing.
	progress int
	// capped is set while the refill loop waits out a capped grant (an
	// empty, not-done KindJobs): only then does a completion need to
	// wake it, and only then does takeJobs answer a slave that still
	// holds unreported jobs without waiting for the queue.
	capped bool

	slaveObjs  []gr.Reduction // monolithic mode only; streamed feeds merger
	slaveStats []wire.Stats
	results    int // objects collected (delivered results + adopted checkpoints)
	started    time.Time
	faults     metrics.Breakdown // master-side stall detections and sync counters

	// resident holds each slave connection's latest reported set of
	// cache-resident chunk ids; the refill loop folds the union into
	// its upstream requests so the head can steer stealing away from
	// chunks this cluster already has warm.
	resident map[*slaveConn][]int32

	// adopted counts checkpoints merged by slaveConn.lost, so readyLocked
	// can balance objects against expected: an adopted checkpoint adds
	// an object without consuming an expected slot (the dead slave's
	// slot was already subtracted).
	adopted int

	// Staging dedup and budget ledger: staged marks chunk ids already
	// submitted to the buffer (never re-staged), stagedBytes charges
	// them against cfg.StageBudget. stageWG tracks in-flight async
	// stage calls so their stats land before the final report.
	staged      map[int32]bool
	stagedBytes int64
	stageWG     sync.WaitGroup

	wg sync.WaitGroup

	doneCh chan error
}

// NewMaster builds a master for the given site.
func NewMaster(cfg MasterConfig) (*Master, error) {
	cfg = cfg.withDefaults()
	if cfg.Site == "" || cfg.App == nil {
		return nil, fmt.Errorf("cluster: master needs a site and an app")
	}
	if cfg.Slaves <= 0 {
		return nil, fmt.Errorf("cluster: master needs a positive slave count")
	}
	plan, err := resolveSyncMode(cfg.SyncMode)
	if err != nil {
		return nil, err
	}
	m := &Master{cfg: cfg, plan: plan, expected: cfg.Slaves, doneCh: make(chan error, 1),
		resident: make(map[*slaveConn][]int32), conns: make(map[*slaveConn]bool),
		draining: make(map[*slaveConn]bool), staged: make(map[int32]bool)}
	m.merger = gr.NewMerger(cfg.App, gr.MergerOptions{
		Mode: plan.merge(), Workers: mergeWorkers,
		Clock: cfg.Clock, CostPerByte: cfg.MergeCost,
	})
	m.cond = sync.NewCond(&m.mu)
	return m, nil
}

// Run connects to the head through dial, serves slaves on l, and
// blocks until the cluster's part of the run completes. It returns the
// final (globally reduced) object received from the head.
func (m *Master) Run(headAddr string, dial store.Dialer, l net.Listener) (gr.Reduction, error) {
	raw, err := dial("tcp", headAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: master %s: dial head: %w", m.cfg.Site, err)
	}
	m.head = wire.NewConn(raw)
	m.head.SetBufferPool(m.cfg.Pool)
	if _, err := m.head.Call(&wire.Message{
		Kind: wire.KindRegisterMaster, Site: m.cfg.Site, Cores: m.cfg.Cores,
	}); err != nil {
		m.head.Close()
		return nil, fmt.Errorf("cluster: master %s: register with head %s: %w", m.cfg.Site, headAddr, err)
	}
	m.headCh = make(chan headReply)
	go m.readHead()
	defer func() {
		// Closing the connection ends the reader; draining releases it if
		// it is parked on an undelivered reply.
		m.head.Close()
		for range m.headCh {
		}
	}()
	if m.cfg.HeartbeatInterval > 0 {
		// Keep the head convinced we are alive through the long quiet
		// stretches (local combine, waiting for slow slaves).
		stop := wire.HeartbeatsWith(m.head, m.cfg.HeartbeatInterval, m.cfg.Logf)
		defer stop()
	}
	m.mu.Lock()
	m.started = m.cfg.Clock.Now()
	m.mu.Unlock()

	// Accept slave connections.
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				wc := wire.NewConn(conn)
				wc.SetBufferPool(m.cfg.Pool)
				if err := m.handleSlave(wc); err != nil {
					m.fail(err)
				}
			}()
		}
	}()

	// Pump the head for jobs until it reports the pool dry.
	if err := m.refillLoop(); err != nil {
		m.fail(err)
	}

	// Wait for every slave's result (or a failure).
	err = <-m.doneCh
	l.Close()
	m.wg.Wait()
	if err != nil {
		return nil, err
	}
	return m.combineAndReport()
}

func (m *Master) fail(err error) {
	m.mu.Lock()
	if m.failed == nil {
		m.failed = err
		m.headDone = true // release blocked slaves
		select {
		case m.doneCh <- err:
		default:
		}
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// watermark is the refill threshold: half a batch, at least one job.
func (m *Master) watermark() int { return max(m.cfg.Batch/2, 1) }

// refillLoop keeps the local pool topped up: whenever the queue drops
// below the watermark it requests a batch from the head, piggybacking
// completed-job acknowledgements.
func (m *Master) refillLoop() error {
	for {
		m.mu.Lock()
		for len(m.queue) >= m.watermark() && m.failed == nil {
			m.cond.Wait()
		}
		if m.failed != nil {
			m.mu.Unlock()
			return nil
		}
		completed := m.completed
		m.completed = nil
		progress := m.progress
		resident := m.residentUnionLocked()
		m.mu.Unlock()

		reply, err := m.callHead(&wire.Message{
			Kind: wire.KindRequestJobs, Site: m.cfg.Site,
			Max: m.cfg.Batch, Completed: completed, Progress: progress,
			Resident: resident,
		})
		if err != nil {
			return fmt.Errorf("cluster: master %s: request jobs: %w", m.cfg.Site, err)
		}
		resp := reply.msg
		if resp.Kind != wire.KindJobs {
			return fmt.Errorf("cluster: master %s: unexpected %v", m.cfg.Site, resp.Kind)
		}

		m.mu.Lock()
		m.queue = append(m.queue, resp.Jobs...)
		if resp.Done {
			m.headDone = true
		}
		m.cond.Broadcast()
		done := m.headDone
		if !done && len(resp.Jobs) == 0 {
			// Capped: this site already holds its share of what is left.
			// Ask again once that changes — a completion since the
			// request, a drain return or requeue, or a failure — never
			// in a loop over the WAN.
			m.capped = true
			queued := len(m.queue)
			for m.progress == progress && len(m.queue) == queued && m.failed == nil {
				m.cond.Wait()
			}
			m.capped = false
		}
		m.mu.Unlock()
		if done {
			m.cfg.Logf("master %s: head pool dry, draining", m.cfg.Site)
			return nil
		}
	}
}

// headReply is one head message handed from readHead to the protocol
// goroutine. A KindFinal reply also carries what the head streamed
// ahead of it: final, the merged result (a cluster that delivered
// early), or partial, the merge of every other cluster (the laggard,
// which folds its own result in). Neither is set for a lone cluster,
// whose own combine is the final.
type headReply struct {
	msg            *wire.Message
	final, partial gr.Reduction
	err            error
}

// readHead is the only reader of the head connection. Reads are paced
// on this side of the shaped link, so the head's streams only make
// progress while someone is reading: a dedicated reader lets the
// partial come down while the cluster result is still going up, and
// applies KindScale pushes the moment they arrive instead of at the
// next exchange. It hands request replies to callHead and exits after
// KindFinal or a connection error, closing headCh.
func (m *Master) readHead() {
	defer close(m.headCh)
	oc := objectCollector{merger: m.merger, conn: m.head}
	defer oc.abort(fmt.Errorf("cluster: master %s: head connection closed mid-stream", m.cfg.Site))
	var partial gr.Reduction
	for {
		msg, err := m.head.Recv()
		if err != nil {
			m.headCh <- headReply{err: err}
			return
		}
		switch msg.Kind {
		case wire.KindScale:
			m.applyScale(msg.Target)
		case wire.KindObjectPart:
			// Decode overlaps the parts still crossing the WAN.
			err = oc.feed(msg)
		case wire.KindPartial:
			partial, _, _, err = oc.take()
		case wire.KindFinal:
			r := headReply{msg: msg, partial: partial}
			if oc.pending() {
				r.final, _, _, r.err = oc.take()
			}
			m.headCh <- r
			return
		default:
			m.headCh <- headReply{msg: msg}
		}
		if err != nil {
			m.headCh <- headReply{err: err}
			return
		}
	}
}

// callHead sends msg and waits for the reply readHead dispatches.
func (m *Master) callHead(msg *wire.Message) (headReply, error) {
	if err := m.head.Send(msg); err != nil {
		return headReply{}, err
	}
	r, ok := <-m.headCh
	switch {
	case !ok:
		return r, fmt.Errorf("cluster: master %s: head connection closed", m.cfg.Site)
	case r.err != nil:
		return r, r.err
	case r.msg.Kind == wire.KindError:
		return r, &wire.RemoteError{Msg: r.msg.Err}
	}
	return r, nil
}

// applyScale reacts to the head's new worker-count target for this
// site. Scaling down drains the surplus; scaling up is the
// provisioner's job (new slaves arrive via KindJoin), so a target
// above the current membership is a no-op here.
func (m *Master) applyScale(target int) {
	m.mu.Lock()
	active := len(m.conns) - len(m.draining)
	m.mu.Unlock()
	if surplus := active - target; surplus > 0 {
		m.DrainSlaves(surplus)
	}
}

// DrainSlaves commands up to n non-draining slaves to retire after
// their current grant, always keeping at least one active worker so
// queued work can never strand. It returns how many were commanded.
func (m *Master) DrainSlaves(n int) int {
	m.mu.Lock()
	var victims []*wire.Conn
	for sc := range m.conns {
		if len(victims) >= n {
			break
		}
		if m.draining[sc] {
			continue
		}
		if len(m.conns)-len(m.draining) <= 1 {
			break // never drain the last active worker
		}
		m.draining[sc] = true
		victims = append(victims, sc.c)
	}
	m.mu.Unlock()
	m.cond.Broadcast() // waiters in takeJobs re-check their drain flag
	for _, c := range victims {
		// Push is best-effort: a conn that dies here takes the
		// slave-lost path, which re-executes everything it held.
		_ = c.Send(&wire.Message{Kind: wire.KindDrain})
	}
	if len(victims) > 0 {
		m.cfg.Logf("master %s: draining %d slave(s)", m.cfg.Site, len(victims))
	}
	return len(victims)
}

// Stager is the staging face of the site's burst buffer: pull a chunk
// into the shared cache without shipping its bytes anywhere.
type Stager interface {
	Stage(name string, off, length int64) (int64, error)
}

// stageHints submits this grant's queue-front hints to the burst
// buffer so the chunks are (being) fetched from the backing store by
// the time a slave asks for them. Each chunk is staged at most once,
// charged against StageBudget up front (with a refund for bytes the
// buffer reports it did not actually stage, e.g. already-resident
// chunks), and pulled asynchronously so grants never wait on S3.
func (m *Master) stageHints(hints []wire.JobAssign) {
	if m.cfg.Buffer == nil || len(hints) == 0 {
		return
	}
	var todo []wire.JobAssign
	m.mu.Lock()
	for _, h := range hints {
		if h.HomeSite != m.cfg.Site {
			continue // the buffer fronts this site's own backing store
		}
		if m.staged[h.Chunk] {
			continue
		}
		if m.cfg.StageBudget > 0 && m.stagedBytes+h.Length > m.cfg.StageBudget {
			continue
		}
		m.staged[h.Chunk] = true
		m.stagedBytes += h.Length
		todo = append(todo, h)
	}
	m.mu.Unlock()
	for _, h := range todo {
		h := h
		m.stageWG.Add(1)
		go func() {
			defer m.stageWG.Done()
			n, err := m.cfg.Buffer.Stage(h.File, h.Offset, h.Length)
			if err != nil {
				n = 0
				m.cfg.Logf("master %s: stage chunk %d: %v", m.cfg.Site, h.Chunk, err)
			}
			m.faults.AddStaged(n)
			if refund := h.Length - n; refund > 0 {
				m.mu.Lock()
				m.stagedBytes -= refund
				m.mu.Unlock()
			}
		}()
	}
}

// checkpoint is one connection's newest shipped partial reduction,
// decoded at arrival (streamed checkpoints decode incrementally as
// their parts land, so the encoded form never rematerializes).
type checkpoint struct {
	seq     int
	object  gr.Reduction
	covered []int32 // cumulative chunk ids reduced into object
	stats   wire.Stats
}

// drainsPendingExceptLocked reports whether any connection other than
// sc has been commanded to drain but not yet delivered its result.
func (m *Master) drainsPendingExceptLocked(sc *slaveConn) bool {
	for other := range m.draining {
		if other != sc {
			return true
		}
	}
	return false
}

// slaveConn is the master's side of one slave connection. After
// registering (or joining mid-run) the slave sends job requests,
// checkpoints and preempt warnings in any order, and the connection
// leaves through exactly one of two exits: result, when the slave
// delivers its reduction object, or lost, when the connection fails
// first; close tears it down after either. Apart from c, which
// DrainSlaves pushes to, only the connection's goroutine uses its fields.
//
// Fault tolerance (an extension beyond the paper): a slave's completed
// jobs are only acknowledged upstream once its reduction object has
// arrived safely. If the slave dies first, every job it was ever
// granted is requeued — its partial reduction object died with it, so
// even "completed" jobs must be re-executed.
type slaveConn struct {
	m    *Master
	c    *wire.Conn
	peer net.Addr
	// granted is every job ever granted on this connection; only a
	// checkpoint adoption in lost removes entries.
	granted  map[int32]wire.JobAssign
	reported []int32 // every completion the slave has sent
	// oc incrementally decodes this connection's streamed objects
	// (checkpoints, then the result), one at a time.
	oc objectCollector
	// ckpt is the newest checkpoint (highest Seq wins). Only lost merges
	// it, so a delivered result supersedes it.
	ckpt *checkpoint
	// hintDepth is the connection's effective hint depth, seeded from
	// cfg.HintDepth; hintWaste is the slave's last reported hint-waste
	// ledger (seenWaste once it has reported), whose trend moves it.
	hintDepth, hintWaste int
	seenWaste            bool
}

// handleSlave serves one slave connection from registration to its
// exit. A non-nil error is a protocol violation and fails the run.
func (m *Master) handleSlave(c *wire.Conn) error {
	sc, err := m.register(c)
	if err != nil {
		c.Close()
		return err
	}
	defer sc.close()
	for {
		req, err := c.Recv()
		if err != nil {
			if wire.IsTimeout(err) {
				// The connection is still open but the slave went
				// silent: a stall, not a crash. Same recovery path —
				// everything it held is re-executed.
				m.faults.CountHeartbeatMiss()
				m.cfg.Logf("master %s: slave %v stalled (no traffic for %v), declaring lost",
					m.cfg.Site, sc.peer, m.cfg.HeartbeatInterval*time.Duration(m.cfg.HeartbeatMisses))
			}
			sc.lost()
			return nil
		}
		switch req.Kind {
		case wire.KindHeartbeat:
			// Liveness only; Recv re-armed the idle deadline.
		case wire.KindObjectPart:
			// One bounded frame of a streamed object (checkpoint or
			// result); the collector's decode goroutine consumes it while
			// later parts are still in flight.
			if err := sc.oc.feed(req); err != nil {
				return fmt.Errorf("cluster: master %s: slave %v object stream: %w", m.cfg.Site, sc.peer, err)
			}
		case wire.KindCheckpoint:
			sc.checkpoint(req)
		case wire.KindPreemptWarn:
			err = sc.preemptWarn()
		case wire.KindRequestJob:
			err = sc.request(req)
		case wire.KindSlaveResult:
			return sc.result(req)
		default:
			return fmt.Errorf("cluster: master %s: unexpected %v from slave %v", m.cfg.Site, req.Kind, sc.peer)
		}
		if err != nil {
			sc.lost() // a slave we cannot send to is as lost as a dead one
			return nil
		}
	}
}

// register reads a slave's registration, acks it and enrolls the
// connection in the master's membership.
func (m *Master) register(c *wire.Conn) (*slaveConn, error) {
	addr := c.RemoteAddr()
	reg, err := c.Recv()
	if err != nil {
		return nil, fmt.Errorf("cluster: master %s: slave %v register: %w", m.cfg.Site, addr, err)
	}
	switch reg.Kind {
	case wire.KindRegisterSlave:
		// Expected at deploy time; counted in cfg.Slaves.
	case wire.KindJoin:
		// Late join (elastic scale-up): admit the worker and expect one
		// more result before the local combine.
		m.mu.Lock()
		m.expected++
		joined := m.expected
		m.mu.Unlock()
		m.cfg.Logf("master %s: slave %v joined mid-run (%d expected)", m.cfg.Site, addr, joined)
	default:
		return nil, fmt.Errorf("cluster: master %s: slave %v: expected register-slave or join, got %v",
			m.cfg.Site, addr, reg.Kind)
	}
	if err := c.Send(&wire.Message{Kind: wire.KindAck}); err != nil {
		return nil, err
	}
	if m.cfg.HeartbeatInterval > 0 {
		// A registered slave must show signs of life — a request or a
		// heartbeat — within every miss window, or Recv times out and
		// the slave is declared stalled.
		window := m.cfg.HeartbeatInterval * time.Duration(m.cfg.HeartbeatMisses)
		c.SetIdleTimeout(window)
		c.SetWriteTimeout(window)
	}
	sc := &slaveConn{m: m, c: c, peer: addr, granted: make(map[int32]wire.JobAssign),
		oc: objectCollector{merger: m.merger, conn: c}, hintDepth: m.cfg.HintDepth}
	m.mu.Lock()
	m.conns[sc] = true
	m.mu.Unlock()
	return sc, nil
}

// request books the completions a job request reports and answers it
// with a grant from the local queue, returning the grant's send error.
func (sc *slaveConn) request(req *wire.Message) error {
	m := sc.m
	sc.reported = append(sc.reported, req.Completed...)
	if n := len(req.Completed); n > 0 {
		m.mu.Lock()
		m.progress += n
		if m.capped {
			m.cond.Broadcast()
		}
		m.mu.Unlock()
	}
	sc.noteHintWaste(req.HintWasteChunks)
	if req.Resident != nil {
		// An empty report still replaces the previous one: a drained
		// cache must clear its stale warm set.
		m.mu.Lock()
		m.resident[sc] = req.Resident
		m.mu.Unlock()
	}
	jobs, hints, done, drain := sc.takeJobs(max(req.Max, 1))
	for _, j := range jobs {
		sc.granted[j.Chunk] = j
	}
	m.stageHints(hints)
	return sc.c.Send(&wire.Message{Kind: wire.KindJobGrant, Jobs: jobs, Hints: hints, Done: done, Drain: drain})
}

// noteHintWaste folds one slave's reported hint-waste ledger into its
// effective hint depth: waste climbing means the hints this connection
// warms are being granted elsewhere, so its depth halves (the trims are
// counted); waste flat or subsiding earns the depth back one step per
// report, up to the configured ceiling.
func (sc *slaveConn) noteHintWaste(waste int) {
	m := sc.m
	if m.cfg.HintDepth <= 0 {
		return
	}
	prev, seen := sc.hintWaste, sc.seenWaste
	sc.hintWaste, sc.seenWaste = waste, true
	switch {
	case seen && waste > prev:
		if sc.hintDepth > 1 {
			sc.hintDepth /= 2
			m.faults.CountHintTrim()
			m.cfg.Logf("master %s: slave %v hint waste %d->%d, depth trimmed to %d",
				m.cfg.Site, sc.peer, prev, waste, sc.hintDepth)
		}
	case waste <= prev && sc.hintDepth < m.cfg.HintDepth:
		sc.hintDepth++
	}
}

// checkpoint keeps the newest of the slave's one-way checkpoint
// pushes, so a delayed duplicate can never roll a partial reduction
// back. It is merged only if the connection is lost.
func (sc *slaveConn) checkpoint(req *wire.Message) {
	m := sc.m
	obj, err := takeObject(m.cfg.App, &sc.oc, req)
	if err != nil {
		// A checkpoint that cannot be decoded is dropped, not fatal: the
		// master just keeps the previous one.
		m.cfg.Logf("master %s: discarding undecodable checkpoint from %v: %v", m.cfg.Site, sc.peer, err)
		return
	}
	if sc.ckpt == nil || req.Seq > sc.ckpt.seq {
		sc.ckpt = &checkpoint{seq: req.Seq, object: obj, covered: req.Completed, stats: req.Stats}
	}
}

// preemptWarn marks a revocation-warned slave draining BEFORE acking,
// so no other worker can take an end-of-run grant while the drain's
// returned jobs are still in flight back to the queue. It returns the
// ack's send error.
func (sc *slaveConn) preemptWarn() error {
	m := sc.m
	m.mu.Lock()
	m.draining[sc] = true
	m.mu.Unlock()
	m.faults.CountPreemptWarn()
	m.cfg.Logf("master %s: slave %v preempt-warned, accelerated drain", m.cfg.Site, sc.peer)
	m.cond.Broadcast()
	return sc.c.Send(&wire.Message{Kind: wire.KindAck})
}

// result is the delivered exit: it checks the slave accounted for
// every job it was granted, acks, and hands the object to the local
// combine; a drain's returned jobs go back to the queue.
func (sc *slaveConn) result(req *wire.Message) error {
	m := sc.m
	sc.reported = append(sc.reported, req.Completed...)
	// Chunk conservation: completions plus drain-returns must cover
	// everything ever granted to this connection, exactly once each. A
	// drain that drops a chunk or a return that overlaps a completion
	// would silently skew the reduction, so both fail the run loudly.
	outstanding := make(map[int32]bool, len(sc.granted))
	for id := range sc.granted {
		outstanding[id] = true
	}
	for _, id := range sc.reported {
		if !outstanding[id] {
			return fmt.Errorf("cluster: master %s: slave %v completed chunk %d it did not hold",
				m.cfg.Site, sc.peer, id)
		}
		delete(outstanding, id)
	}
	var returned []wire.JobAssign
	for _, id := range req.Returned {
		if !outstanding[id] {
			return fmt.Errorf("cluster: master %s: slave %v returned chunk %d it did not hold",
				m.cfg.Site, sc.peer, id)
		}
		delete(outstanding, id)
		returned = append(returned, sc.granted[id])
	}
	if len(outstanding) != 0 {
		return fmt.Errorf("cluster: master %s: slave %v completed or returned %d of %d granted jobs",
			m.cfg.Site, sc.peer, len(sc.granted)-len(outstanding), len(sc.granted))
	}
	obj, err := takeObject(m.cfg.App, &sc.oc, req)
	if err != nil {
		return fmt.Errorf("cluster: master %s: decode slave %v result: %w", m.cfg.Site, sc.peer, err)
	}
	if err := sc.c.Send(&wire.Message{Kind: wire.KindAck}); err != nil {
		return err
	}
	if m.plan.streamed {
		// Availability-driven combine: the object merges now, on this
		// handler's goroutine (or a merge worker), while other slaves
		// are still streaming theirs.
		m.merger.Add(obj)
	}
	m.mu.Lock()
	m.completed = append(m.completed, sc.reported...)
	m.progress += len(req.Completed)
	if !m.plan.streamed {
		m.slaveObjs = append(m.slaveObjs, obj)
	}
	m.results++
	m.slaveStats = append(m.slaveStats, req.Stats)
	if req.Returned != nil {
		// Drain result: the partial reduction above stands, and the
		// unprocessed remainder goes back to the local queue for the
		// surviving workers (or cross-site stealing once the head
		// re-pools it).
		m.queue = append(m.queue, returned...)
		m.cfg.Logf("master %s: slave %v drained: %d done, %d returned",
			m.cfg.Site, sc.peer, len(sc.reported), len(returned))
	}
	ready := m.readyLocked()
	m.mu.Unlock()
	m.cond.Broadcast() // returned work and cleared drains wake takeJobs
	if ready {
		m.doneCh <- nil
	}
	return nil
}

// lost is the failed exit: the slave died, stalled or could not be
// sent to. Its newest checkpoint, if any, is adopted first, so only
// work since the checkpoint re-executes; every other job it was
// granted requeues, and the master stops expecting its result. If no
// slaves remain, the cluster cannot finish and the run fails.
func (sc *slaveConn) lost() {
	m := sc.m
	m.mu.Lock()
	if sc.ckpt != nil {
		sc.adoptLocked(sc.ckpt)
	}
	for _, j := range sc.granted {
		m.queue = append(m.queue, j)
	}
	if len(sc.granted) > 0 {
		m.faults.CountRequeue(len(sc.granted))
	}
	m.expected--
	remaining := m.expected
	m.cfg.Logf("master %s: slave lost, requeued %d jobs, %d slaves remain",
		m.cfg.Site, len(sc.granted), remaining)
	m.cond.Broadcast()
	ready := m.readyLocked()
	m.mu.Unlock()
	if remaining <= 0 {
		m.fail(fmt.Errorf("cluster: master %s: all slaves lost", m.cfg.Site))
		return
	}
	if ready {
		m.doneCh <- nil
	}
}

// adoptLocked merges a lost connection's newest checkpoint and takes
// the jobs it covers off the granted ledger, acknowledging them
// upstream instead of re-executing them.
func (sc *slaveConn) adoptLocked(ck *checkpoint) {
	m := sc.m
	// Every covered chunk must still be on the granted ledger; anything
	// else means a corrupt or foreign checkpoint, which is discarded
	// rather than risking a double merge.
	for _, id := range ck.covered {
		if _, ok := sc.granted[id]; !ok {
			m.cfg.Logf("master %s: discarding checkpoint covering un-granted chunks", m.cfg.Site)
			return
		}
	}
	// A covered job the slave never reported is finished all the same:
	// the head's grant cap reads granted − progress as what this site
	// still holds, and a job it never sees complete would keep the site
	// capped with nothing left to run.
	seen := make(map[int32]bool, len(sc.reported))
	for _, id := range sc.reported {
		seen[id] = true
	}
	for _, id := range ck.covered {
		delete(sc.granted, id)
		if !seen[id] {
			m.progress++
		}
	}
	m.completed = append(m.completed, ck.covered...)
	if m.plan.streamed {
		m.merger.Add(ck.object)
	} else {
		m.slaveObjs = append(m.slaveObjs, ck.object)
	}
	m.results++
	m.slaveStats = append(m.slaveStats, ck.stats)
	m.adopted++
	m.faults.CountCheckpointAdopt(len(ck.covered))
	m.cfg.Logf("master %s: adopted checkpoint seq %d (%d jobs saved from re-execution)",
		m.cfg.Site, ck.seq, len(ck.covered))
}

// close tears the connection down after either exit: it joins a
// half-received object's decoder and drops the connection from the
// master's membership and per-connection state.
func (sc *slaveConn) close() {
	m := sc.m
	sc.oc.abort(fmt.Errorf("cluster: master %s: slave %v connection closed mid-stream", m.cfg.Site, sc.peer))
	m.mu.Lock()
	delete(m.resident, sc)
	delete(m.conns, sc)
	delete(m.draining, sc)
	m.mu.Unlock()
	// A vanished drain no longer holds back end-of-run grants.
	m.cond.Broadcast()
	sc.c.Close()
}

// readyLocked reports whether every expected object is in — delivered
// results plus adopted checkpoints — marking the cluster finished the
// first time it is, so exactly one caller signals doneCh.
func (m *Master) readyLocked() bool {
	if m.finished || m.failed != nil || m.expected <= 0 || m.results != m.expected+m.adopted {
		return false
	}
	m.finished = true
	return true
}

// takeJobs pops up to max jobs, blocking while the pool is being
// refilled; done is true only when the head has no more jobs AND the
// local queue is empty. hints is a copy of the queue front after the
// pop — the jobs most likely to be granted next — capped at HintDepth.
//
// Two membership twists: a connection commanded to drain gets the
// drain flag instead of jobs (even if it was already parked here when
// the command landed), and end-of-run done grants are withheld while
// any other connection's drain is still pending — its result may
// return work to the queue, and a worker released with done=true
// would never come back for it.
//
// A connection may still hold jobs it has not reported — a prefetching
// slave asks for its next grant while it reduces the current one.
// While the refill loop waits out a capped grant with the queue empty,
// such a request gets an empty, not-done grant at once: parked, it
// would keep the current grant's jobs unreported, and the capped wait
// lasts until this site reports progress.
func (sc *slaveConn) takeJobs(max int) (jobs, hints []wire.JobAssign, done, drain bool) {
	m, holding := sc.m, len(sc.granted) > len(sc.reported)
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.draining[sc] {
			return nil, nil, false, true
		}
		if len(m.queue) > 0 {
			break
		}
		if m.failed != nil {
			return nil, nil, true, false
		}
		if m.headDone && !m.drainsPendingExceptLocked(sc) {
			return nil, nil, true, false
		}
		if m.capped && holding {
			return nil, nil, false, false
		}
		m.cond.Wait()
	}
	n := len(m.queue)
	if max < n {
		n = max
	}
	jobs = append([]wire.JobAssign(nil), m.queue[:n]...)
	m.queue = m.queue[n:]
	if h := sc.hintDepth; h > 0 && len(m.queue) > 0 {
		if h > len(m.queue) {
			h = len(m.queue)
		}
		hints = append([]wire.JobAssign(nil), m.queue[:h]...)
	}
	// Dropping below the watermark wakes the refill loop.
	if len(m.queue) < m.watermark() {
		m.cond.Broadcast()
	}
	return jobs, hints, false, false
}

// residentUnionLocked merges every slave connection's latest reported
// cache-resident chunk ids — plus the chunks staged into the site's
// burst buffer, which are just as warm from the head's point of view —
// into one deduplicated set for the head. It returns nil only when no
// slave has reported and nothing was staged; an empty union from
// drained caches still returns a non-nil empty slice (which the codec
// preserves) so the head clears the site's stale warm set.
func (m *Master) residentUnionLocked() []int32 {
	if len(m.resident) == 0 && len(m.staged) == 0 {
		return nil
	}
	seen := make(map[int32]bool)
	out := []int32{}
	for _, ids := range m.resident {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	for id := range m.staged {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// combineAndReport performs the intra-cluster combine, ships the
// result (plus aggregated stats and any unreported completions) to the
// head, and waits for the final object.
func (m *Master) combineAndReport() (gr.Reduction, error) {
	// Let in-flight stage calls land: their staged-bytes stats must be
	// in m.faults before the snapshot below ships upstream.
	m.stageWG.Wait()
	m.mu.Lock()
	objs := m.slaveObjs
	m.slaveObjs = nil
	stats := m.slaveStats
	completed := m.completed
	m.completed = nil
	progress := m.progress
	started := m.started
	m.mu.Unlock()

	// The local combine. Under a streamed plan the merger has been
	// absorbing objects since the first slave finished, so Finish only
	// pays for whatever merge work the arrivals did not already hide —
	// the exposed tail. Monolithic mode held every object back and pays
	// the whole fold here, after the all-slaves barrier.
	t0 := m.cfg.Clock.Now()
	for _, o := range objs {
		if err := m.merger.Add(o); err != nil {
			return nil, fmt.Errorf("cluster: master %s: combine: %w", m.cfg.Site, err)
		}
	}
	combined, mstats, err := m.merger.Finish()
	if err != nil {
		return nil, fmt.Errorf("cluster: master %s: combine: %w", m.cfg.Site, err)
	}
	tail := m.cfg.Clock.ToEmu(m.cfg.Clock.Now().Sub(t0))
	m.faults.AddMerge(mstats.Merges, m.cfg.Clock.ToEmu(mstats.Busy), tail, mstats.MaxParallel)

	// The cluster's wall time ends here, before the result ships: the
	// WAN transfer belongs to the global reduction in every sync mode.
	var agg wire.Stats
	for _, s := range stats {
		agg.Breakdown = agg.Breakdown.Add(s.Breakdown)
	}
	agg.WallEmu = int64(m.cfg.Clock.ToEmu(m.cfg.Clock.Now().Sub(started)))
	m.cfg.Logf("master %s: local combine done, %d jobs, shipping %d-byte object",
		m.cfg.Site, agg.Breakdown.JobsProcessed, combined.Bytes())

	msg := &wire.Message{
		Kind: wire.KindClusterResult, Site: m.cfg.Site,
		Completed: completed, Progress: progress,
	}
	if m.plan.streamed {
		// Stream the combined object to the head in bounded parts — the
		// full encoded form is never allocated — then send the terminal
		// message (Object nil) once the last part is on the wire.
		ow := wire.NewObjectWriter(m.head, 0)
		if err := combined.Encode(ow); err != nil {
			return nil, fmt.Errorf("cluster: master %s: stream result: %w", m.cfg.Site, err)
		}
		if err := ow.Close(); err != nil {
			return nil, fmt.Errorf("cluster: master %s: stream result: %w", m.cfg.Site, err)
		}
		m.faults.AddObjectStream(ow.Frames(), ow.Bytes(), int64(combined.Bytes()))
	} else if msg.Object, err = gr.EncodeReduction(combined); err != nil {
		return nil, err
	}
	// Fold in the master's own stall detections and sync counters so
	// they reach the run report alongside the workers' counters.
	agg.Breakdown = agg.Breakdown.Add(m.faults.Snapshot())
	msg.Stats = agg

	reply, err := m.callHead(msg)
	if err != nil {
		return nil, fmt.Errorf("cluster: master %s: report: %w", m.cfg.Site, err)
	}
	if reply.msg.Kind != wire.KindFinal {
		return nil, fmt.Errorf("cluster: master %s: expected final, got %v", m.cfg.Site, reply.msg.Kind)
	}
	return m.acceptFinal(reply, combined)
}

// acceptFinal turns the head's Final reply into this site's copy of
// the merged result and acks it: the head charges the final's (shaped)
// transfer time to the global reduction only once the ack lands.
func (m *Master) acceptFinal(reply headReply, combined gr.Reduction) (gr.Reduction, error) {
	ack := &wire.Message{Kind: wire.KindAck}
	final := combined // a lone cluster's own combine is the final
	switch {
	case reply.final != nil:
		final = reply.final
	case reply.partial != nil:
		// The laggard's side of the exchange: the merge of every other
		// cluster came down while our result went up; folding it into
		// our own is the same final the head computes. The ack waits
		// for the fold, so the run ends when this site holds the final.
		t0, before := m.cfg.Clock.Now(), m.merger.Stats()
		if err := m.merger.Fold(combined, reply.partial); err != nil {
			return nil, fmt.Errorf("cluster: master %s: fold partial: %w", m.cfg.Site, err)
		}
		span := m.cfg.Clock.ToEmu(m.cfg.Clock.Now().Sub(t0))
		after := m.merger.Stats()
		ack.Stats.Breakdown = metrics.Snapshot{Merges: 1, MergeBusyEmu: m.cfg.Clock.ToEmu(after.Busy - before.Busy),
			MergeTailEmu: span, MergeMaxPar: after.MaxParallel}
	}
	if err := m.head.Send(ack); err != nil {
		return nil, err
	}
	if enc := reply.msg.Object; enc != nil {
		return gr.DecodeReduction(m.cfg.App, enc) // monolithic: the whole object in the Final frame
	}
	return final, nil
}
