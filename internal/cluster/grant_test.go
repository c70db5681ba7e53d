package cluster

import (
	"strings"
	"testing"
	"time"

	"cloudburst/internal/gr"
	"cloudburst/internal/wire"
)

// Tests for the head's tail grant cap: a site may not hold more of the
// remaining jobs than its measured throughput share, and a master told
// "nothing for now" waits for its own next completion before asking
// again.

func TestTailCap(t *testing.T) {
	t0 := time.Unix(1000, 0)
	now := t0.Add(100 * time.Second)
	// site builds a ledger that registered at t0 and reported progress
	// completions at now, holding granted jobs (stolen of them stolen).
	site := func(progress, granted, stolen int) *siteLedger {
		return &siteLedger{joined: t0, progress: progress, gaugeAt: now, granted: granted, stolen: stolen}
	}
	out := func(l *siteLedger) *siteLedger { l.out = true; return l }
	cases := []struct {
		name       string
		sites      map[string]*siteLedger
		unassigned int
		limit      int
		want       int
	}{
		{
			// Equal rates, 10 unassigned: cloud holds 44 of the 10+44+16
			// left, its share is 35, so it gets nothing.
			name: "hoarding site capped to its share",
			sites: map[string]*siteLedger{
				"cloud": site(100, 144, 0), "local": site(100, 116, 50),
			},
			unassigned: 10, limit: 44, want: 0,
		},
		{
			// Cloud holds 20 of the 10+20+16 left: its share
			// ceil(0.5*46) = 23 leaves room for 3.
			name: "partial grant up to the share",
			sites: map[string]*siteLedger{
				"cloud": site(100, 120, 0), "local": site(100, 116, 50),
			},
			unassigned: 10, limit: 44, want: 3,
		},
		{
			name: "balanced sites uncapped",
			sites: map[string]*siteLedger{
				"cloud": site(100, 120, 0), "local": site(100, 120, 50),
			},
			unassigned: 500, limit: 44, want: 44,
		},
		{
			name: "no thief: uncapped",
			sites: map[string]*siteLedger{
				"cloud": site(100, 144, 0), "local": site(100, 116, 0),
			},
			unassigned: 10, limit: 44, want: 44,
		},
		{
			name: "the requester's own steals do not arm the cap",
			sites: map[string]*siteLedger{
				"cloud": site(100, 144, 30), "local": site(100, 116, 0),
			},
			unassigned: 10, limit: 44, want: 44,
		},
		{
			name:       "one live site: uncapped",
			sites:      map[string]*siteLedger{"cloud": site(100, 144, 0)},
			unassigned: 10, limit: 44, want: 44,
		},
		{
			name: "requester without progress: uncapped",
			sites: map[string]*siteLedger{
				"cloud": site(0, 144, 0), "local": site(100, 116, 50),
			},
			unassigned: 10, limit: 44, want: 44,
		},
		{
			name: "other site without progress: uncapped",
			sites: map[string]*siteLedger{
				"cloud": site(100, 144, 0), "local": site(0, 116, 50),
			},
			unassigned: 10, limit: 44, want: 44,
		},
		{
			name: "zero elapsed: uncapped",
			sites: map[string]*siteLedger{
				"cloud": {joined: now, gaugeAt: now, progress: 100, granted: 144},
				"local": site(100, 116, 50),
			},
			unassigned: 10, limit: 44, want: 44,
		},
		{
			name: "delivered thief excluded",
			sites: map[string]*siteLedger{
				"cloud": site(100, 144, 0), "local": out(site(100, 116, 50)),
			},
			unassigned: 10, limit: 44, want: 44,
		},
		{
			// A lost third site neither counts as a thief nor adds its
			// rate; the two live ones still cap.
			name: "lost site excluded",
			sites: map[string]*siteLedger{
				"cloud": site(100, 144, 0), "local": site(100, 116, 50),
				"edge": out(site(1000, 1000, 900)),
			},
			unassigned: 10, limit: 44, want: 0,
		},
		{
			// The other site's gauge is 50 s old: at its rate of 1 job/s
			// it has since worked off its 16, so cloud's share is
			// ceil(0.5*(10+44)) = 27 — still below the 44 it holds.
			name: "stale gauge advanced at its rate, floored at 0",
			sites: map[string]*siteLedger{
				"cloud": site(100, 144, 0),
				"local": {joined: t0, gaugeAt: t0.Add(50 * time.Second), progress: 50, granted: 66, stolen: 10},
			},
			unassigned: 10, limit: 44, want: 0,
		},
		{
			// Cloud is 3x slower and holds nothing: its share of 10+0+16
			// is ceil(26/4) = 7.
			name: "slow site gets its rate share",
			sites: map[string]*siteLedger{
				"cloud": site(100, 100, 0), "local": site(300, 316, 50),
			},
			unassigned: 10, limit: 44, want: 7,
		},
		{
			name: "clamped to the limit",
			sites: map[string]*siteLedger{
				"cloud": site(100, 100, 0), "local": site(100, 100, 50),
			},
			unassigned: 300, limit: 8, want: 8,
		},
		{
			name: "nothing unassigned: limit (the pool answers done)",
			sites: map[string]*siteLedger{
				"cloud": site(100, 144, 0), "local": site(100, 116, 50),
			},
			unassigned: 0, limit: 44, want: 44,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := grantCap(tc.sites, "cloud", tc.unassigned, tc.limit, now); got != tc.want {
				t.Fatalf("grantCap = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestHeadTailCapGrantsNothing drives the head by hand into the tail:
// local has stolen and works 9x faster than cloud, which hoards most
// of the pool, so cloud's next request is a capped grant — no jobs,
// not done — until its own progress catches up.
func TestHeadTailCapGrantsNothing(t *testing.T) {
	// 8 files of 4 chunks: local holds 2 files, cloud 6.
	cfg, _ := fixture(t, 2048, 8, 2, 1, 1)
	_, addr := startHeadN(t, cfg, 2, "")
	local := newRawMaster(t, addr, cfg, "local")
	cloud := newRawMaster(t, addr, cfg, "cloud")
	ask := func(m *rawMaster, max, progress int) *wire.Message {
		t.Helper()
		if err := m.c.Send(&wire.Message{Kind: wire.KindRequestJobs, Site: m.site, Max: max, Progress: progress}); err != nil {
			t.Fatal(err)
		}
		resp := m.recv()
		if resp.Kind != wire.KindJobs {
			t.Fatalf("%s: request answered %v", m.site, resp.Kind)
		}
		return resp
	}
	granted := map[string]int{}
	take := func(m *rawMaster, max, progress int) (stolen bool) {
		resp := ask(m, max, progress)
		granted[m.site] += len(resp.Jobs)
		for _, j := range resp.Jobs {
			stolen = stolen || j.Stolen
		}
		return stolen
	}
	for !take(local, 4, 0) {
	}
	for range 4 {
		take(cloud, 4, 0)
	}
	time.Sleep(30 * time.Millisecond)
	// local reports everything done; cloud one job.
	take(local, 1, granted["local"])
	if resp := ask(cloud, 4, 1); len(resp.Jobs) != 0 || resp.Done {
		t.Fatalf("cloud holding %d jobs at 1/9 local's rate got %d jobs (done %v), want a capped grant",
			granted["cloud"], len(resp.Jobs), resp.Done)
	}
	// Once cloud has worked off what it holds, it is granted again.
	if resp := ask(cloud, 4, granted["cloud"]); len(resp.Jobs) == 0 {
		t.Fatalf("cloud holding nothing got no jobs (done %v)", resp.Done)
	}
}

// scriptedHead plays the head for one master: the test reads each
// request and writes each reply.
type scriptedHead struct {
	t *testing.T
	c *wire.Conn
}

// startCappedMaster runs a master expecting slaves slaves against a
// scripted head, returning the head, the master's slave address and
// the channel Run's error arrives on.
func startCappedMaster(t *testing.T, cfg DeployConfig, slaves int) (*scriptedHead, string, chan error) {
	t.Helper()
	headLn := mustListen(t)
	master, err := NewMaster(MasterConfig{Site: "local", App: cfg.App, Cores: 1, Slaves: slaves, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln := mustListen(t)
	done := make(chan error, 1)
	go func() {
		_, err := master.Run(headLn.Addr().String(), dialTCP, ln)
		done <- err
	}()
	raw, err := headLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	h := &scriptedHead{t: t, c: wire.NewConn(raw)}
	t.Cleanup(func() { h.c.Close() })
	h.expect(wire.KindRegisterMaster)
	h.send(&wire.Message{Kind: wire.KindAck})
	return h, ln.Addr().String(), done
}

func (h *scriptedHead) expect(kind wire.Kind) *wire.Message {
	h.t.Helper()
	h.c.SetIdleTimeout(10 * time.Second)
	defer h.c.SetIdleTimeout(0)
	msg, err := h.c.Recv()
	if err != nil {
		h.t.Fatalf("head: recv: %v", err)
	}
	if msg.Kind != kind {
		h.t.Fatalf("head: got %v, want %v", msg.Kind, kind)
	}
	return msg
}

func (h *scriptedHead) send(msg *wire.Message) {
	h.t.Helper()
	if err := h.c.Send(msg); err != nil {
		h.t.Fatal(err)
	}
}

// grant answers the master's next request with the first n chunks.
func (h *scriptedHead) grant(cfg DeployConfig, n int) {
	h.t.Helper()
	h.expect(wire.KindRequestJobs)
	resp := &wire.Message{Kind: wire.KindJobs}
	for _, ch := range cfg.Index.Chunks[:n] {
		f := cfg.Index.Files[ch.File]
		resp.Jobs = append(resp.Jobs, wire.JobAssign{
			Chunk: ch.ID, File: f.Name, Offset: ch.Offset, Length: ch.Length, Units: ch.Units, HomeSite: f.Site,
		})
	}
	h.send(resp)
}

// capped answers the master's next request with a capped grant: no
// jobs, not done.
func (h *scriptedHead) capped() {
	h.t.Helper()
	h.expect(wire.KindRequestJobs)
	h.send(&wire.Message{Kind: wire.KindJobs})
}

// expectSilence asserts the master sends nothing for a while.
func (h *scriptedHead) expectSilence() {
	h.t.Helper()
	h.c.SetIdleTimeout(300 * time.Millisecond)
	defer h.c.SetIdleTimeout(0)
	if msg, err := h.c.Recv(); err == nil {
		h.t.Fatalf("head: master sent %v while capped with nothing completed", msg.Kind)
	} else if !wire.IsTimeout(err) {
		h.t.Fatalf("head: %v", err)
	}
}

// takeAll registers a raw slave at the master and takes max jobs.
func takeAll(t *testing.T, masterAddr string, max int) (*wire.Conn, []wire.JobAssign) {
	t.Helper()
	slave := dialWire(t, masterAddr)
	if _, err := slave.Call(&wire.Message{Kind: wire.KindRegisterSlave, Site: "local"}); err != nil {
		t.Fatal(err)
	}
	grant, err := slave.Call(&wire.Message{Kind: wire.KindRequestJob, Max: max})
	if err != nil || len(grant.Jobs) != max {
		t.Fatalf("slave grant %v, %v; want %d jobs", grant, err, max)
	}
	return slave, grant.Jobs
}

func TestMasterCappedGrantWaitsForCompletion(t *testing.T) {
	cfg, _ := fixture(t, 1000, 2, 2, 1, 0)
	head, masterAddr, done := startCappedMaster(t, cfg, 1)
	head.grant(cfg, 1)
	slave, jobs := takeAll(t, masterAddr, 1)
	// The queue is below the watermark again: the master asks, and is
	// capped, and must not ask again before something changes.
	head.capped()
	head.expectSilence()

	// The slave's completion is the next reason to ask.
	if err := slave.Send(&wire.Message{Kind: wire.KindRequestJob, Max: 1, Completed: []int32{jobs[0].Chunk}}); err != nil {
		t.Fatal(err)
	}
	if req := head.expect(wire.KindRequestJobs); req.Progress != 1 {
		t.Fatalf("re-request after the completion carries progress %d, want 1", req.Progress)
	}
	head.c.Close()
	slave.Close()
	if err := <-done; err == nil {
		t.Fatal("master finished without its head")
	}
}

func TestMasterCappedWaitSurvivesSlaveLoss(t *testing.T) {
	cfg, _ := fixture(t, 1000, 2, 2, 1, 0)
	head, masterAddr, done := startCappedMaster(t, cfg, 1)
	// Capped from the first request: the queue stays empty and nothing
	// completes, so only the failure can end the wait.
	head.capped()
	slave := dialWire(t, masterAddr)
	if _, err := slave.Call(&wire.Message{Kind: wire.KindRegisterSlave, Site: "local"}); err != nil {
		t.Fatal(err)
	}
	slave.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "all slaves lost") {
			t.Fatalf("err = %v, want all slaves lost", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master hung in its capped wait after losing every slave")
	}
}

// TestMasterCappedCheckpointCountsProgress loses a slave after it
// checkpointed a job it never reported. Adopting the checkpoint
// finishes that job, so it must reach the progress gauge: otherwise the
// head counts it as held by this site for the rest of the run, and a
// capped site can wait on a completion that never comes.
func TestMasterCappedCheckpointCountsProgress(t *testing.T) {
	cfg, _ := fixture(t, 1000, 2, 2, 1, 0)
	head, masterAddr, _ := startCappedMaster(t, cfg, 2)
	head.grant(cfg, 2)
	a, jobs := takeAll(t, masterAddr, 2)
	head.capped()
	enc, err := gr.EncodeReduction(cfg.App.NewReduction())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&wire.Message{Kind: wire.KindCheckpoint, Seq: 1, Completed: []int32{jobs[0].Chunk}, Object: enc}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// A second slave takes the requeued job, dropping the queue below
	// the watermark again.
	takeAll(t, masterAddr, 1)
	if req := head.expect(wire.KindRequestJobs); req.Progress != 1 {
		t.Fatalf("request after adopting a checkpoint of 1 unreported job carries progress %d, want 1", req.Progress)
	}
}

// TestMasterCappedReleasesPrefetch: a prefetching slave asks for its
// next grant while it still reduces the current one. Parked on the
// empty queue of a capped master, that request would hold the current
// grant's completion unreported forever — the capped wait needs it —
// so the master answers it at once with an empty, not-done grant.
func TestMasterCappedReleasesPrefetch(t *testing.T) {
	cfg, _ := fixture(t, 1000, 2, 2, 1, 0)
	head, masterAddr, _ := startCappedMaster(t, cfg, 1)
	head.grant(cfg, 1)
	slave, jobs := takeAll(t, masterAddr, 1)
	slave.SetIdleTimeout(10 * time.Second)
	// The prefetch for the next grant, sent before the job is done.
	if err := slave.Send(&wire.Message{Kind: wire.KindRequestJob, Max: 1}); err != nil {
		t.Fatal(err)
	}
	head.capped()
	grant, err := slave.Recv()
	if err != nil {
		t.Fatalf("prefetch request parked behind the capped wait: %v", err)
	}
	if grant.Kind != wire.KindJobGrant || len(grant.Jobs) != 0 || grant.Done {
		t.Fatalf("prefetch answered %v with %d jobs (done %v), want an empty not-done grant",
			grant.Kind, len(grant.Jobs), grant.Done)
	}
	// The finished job is now reported and reaches the head.
	if err := slave.Send(&wire.Message{Kind: wire.KindRequestJob, Max: 1, Completed: []int32{jobs[0].Chunk}}); err != nil {
		t.Fatal(err)
	}
	if req := head.expect(wire.KindRequestJobs); req.Progress != 1 {
		t.Fatalf("request after the completion carries progress %d, want 1", req.Progress)
	}
}
