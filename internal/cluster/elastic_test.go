package cluster

import (
	"strings"
	"testing"
	"time"

	"cloudburst/internal/elastic"
	"cloudburst/internal/gr"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
	"cloudburst/internal/wire"
	"cloudburst/internal/workload"
)

// Membership tests for the elastic extension: late joins, drains, and
// the conservation invariant — no chunk lost, none double-counted —
// checked by exact word counts against the sequential reference.

// rawWorker drives the slave side of the master protocol by hand, but
// does the reductions for real so final digests stay exact.
type rawWorker struct {
	t    *testing.T
	c    *wire.Conn
	eng  *gr.Engine
	st   store.Store
	red  gr.Reduction
	done []int32          // processed since the last report
	held []wire.JobAssign // granted, not yet processed
	all  map[int32]bool   // every chunk this worker ever processed
}

func newRawWorker(t *testing.T, addr string, cfg DeployConfig) *rawWorker {
	t.Helper()
	c := dialWire(t, addr)
	resp, err := c.Call(&wire.Message{Kind: wire.KindRegisterSlave, Site: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindAck {
		t.Fatalf("register answered %v", resp.Kind)
	}
	return &rawWorker{
		t: t, c: c,
		eng: gr.NewEngine(cfg.App, gr.EngineOptions{}),
		st:  cfg.Sites[0].HomeStore,
		red: cfg.App.NewReduction(),
		all: make(map[int32]bool),
	}
}

// grant reports processed work, asks for max more jobs, and returns
// the master's grant — absorbing any one-way drain pushes on the way.
func (w *rawWorker) grant(max int) *wire.Message {
	w.t.Helper()
	if err := w.c.Send(&wire.Message{Kind: wire.KindRequestJob, Max: max, Completed: w.done}); err != nil {
		w.t.Fatal(err)
	}
	w.done = nil
	for {
		resp, err := w.c.Recv()
		if err != nil {
			w.t.Fatal(err)
		}
		if resp.Kind == wire.KindDrain {
			continue
		}
		if resp.Kind != wire.KindJobGrant {
			w.t.Fatalf("request answered %v", resp.Kind)
		}
		w.held = append(w.held, resp.Jobs...)
		return resp
	}
}

// process reduces the first n held jobs for real.
func (w *rawWorker) process(n int) {
	w.t.Helper()
	for _, j := range w.held[:n] {
		data := make([]byte, j.Length)
		if _, err := w.st.ReadAt(j.File, data, j.Offset); err != nil {
			w.t.Fatal(err)
		}
		if _, err := w.eng.ProcessChunk(w.red, data); err != nil {
			w.t.Fatal(err)
		}
		w.done = append(w.done, j.Chunk)
		w.all[j.Chunk] = true
	}
	w.held = w.held[n:]
}

// finish ships the final reduction. With retire it hands every held
// (unprocessed) job back; otherwise holding jobs is a test bug.
func (w *rawWorker) finish(retire bool) {
	w.t.Helper()
	enc, err := gr.EncodeReduction(w.red)
	if err != nil {
		w.t.Fatal(err)
	}
	msg := &wire.Message{Kind: wire.KindSlaveResult, Object: enc, Completed: w.done}
	if retire {
		// Non-nil even when empty: that marks the result as a drain.
		msg.Returned = []int32{}
		for _, j := range w.held {
			msg.Returned = append(msg.Returned, j.Chunk)
		}
		w.held = nil
	} else if len(w.held) > 0 {
		w.t.Fatalf("finishing while holding %d jobs", len(w.held))
	}
	if err := w.c.Send(msg); err != nil {
		w.t.Fatal(err)
	}
	for {
		resp, err := w.c.Recv()
		if err != nil {
			w.t.Fatal(err)
		}
		if resp.Kind == wire.KindDrain {
			continue
		}
		if resp.Kind != wire.KindAck {
			w.t.Fatalf("result answered %v", resp.Kind)
		}
		return
	}
}

func startMaster(t *testing.T, cfg DeployConfig, headAddr string, slaves int) (*Master, string, chan error) {
	t.Helper()
	master, err := NewMaster(MasterConfig{
		Site: "local", App: cfg.App, Cores: slaves, Slaves: slaves,
		Batch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := mustListen(t)
	done := make(chan error, 1)
	go func() {
		_, err := master.Run(headAddr, dialTCP, ln)
		done <- err
	}()
	return master, ln.Addr().String(), done
}

func TestJoinAdmitsLateSlave(t *testing.T) {
	// One expected slave grabs a grant and retires, returning half of
	// it unprocessed; a KindJoin late-comer must be admitted and must
	// finish everything, with the merged counts exact.
	cfg, gen := fixture(t, 2000, 2, 2, 1, 0)
	head, headAddr := startHead(t, cfg)
	logs := make(chan string, 64)
	_, masterAddr, masterDone := startMasterLogged(t, cfg, headAddr, 1, logs)

	w1 := newRawWorker(t, masterAddr, cfg)
	g := w1.grant(4)
	if len(g.Jobs) == 0 {
		t.Fatal("no jobs granted")
	}

	// Paced, so the late-comer is still working (and comes back for
	// the returned jobs) when the first slave retires.
	paced, err := newFixtureApp("2ms")
	if err != nil {
		t.Fatal(err)
	}
	joined, err := NewSlave(SlaveConfig{
		Site: "local", App: paced, Cores: 1, Join: true,
		HomeStore: cfg.Sites[0].HomeStore, Clock: netsim.Scaled(0.01),
	})
	if err != nil {
		t.Fatal(err)
	}
	joinDone := make(chan error, 1)
	go func() {
		_, err := joined.Run(masterAddr, dialTCP)
		joinDone <- err
	}()

	// The retiree must not be the last expected slave when it finishes,
	// or the master combines before the late-comer exists.
	awaitLog(t, logs, "joined mid-run")

	// Process half the grant, hand the rest back, retire.
	w1.process(len(w1.held) / 2)
	w1.finish(true)

	if err := <-masterDone; err != nil {
		t.Fatalf("master: %v", err)
	}
	if err := <-joinDone; err != nil {
		t.Fatalf("joined slave: %v", err)
	}
	// Raw workers ship no stats, so the exact count check (not the
	// stats-derived JobsProcessed) is the conservation proof here.
	_, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, 2000))
}

func TestDrainRacingStealConservation(t *testing.T) {
	// Two workers each hold a grant when a drain command lands. The
	// victim completes part of its grant and returns the rest; the
	// survivor must be re-granted exactly the returned chunks — none
	// lost, none twice — proven by exact final counts.
	cfg, gen := fixture(t, 2000, 2, 2, 2, 0)
	head, headAddr := startHead(t, cfg)
	master, masterAddr, masterDone := startMaster(t, cfg, headAddr, 2)

	w1 := newRawWorker(t, masterAddr, cfg)
	w2 := newRawWorker(t, masterAddr, cfg)
	if g := w1.grant(4); len(g.Jobs) == 0 {
		t.Fatal("w1 got no jobs")
	}
	if g := w2.grant(4); len(g.Jobs) == 0 {
		t.Fatal("w2 got no jobs")
	}

	if n := master.DrainSlaves(1); n != 1 {
		t.Fatalf("DrainSlaves = %d, want 1", n)
	}

	// Both process one job and report in; exactly one gets the drain
	// flag (whichever the master picked).
	w1.process(1)
	w2.process(1)
	r1, r2 := w1.grant(4), w2.grant(4)
	if r1.Drain == r2.Drain {
		t.Fatalf("drain flags: w1=%v w2=%v, want exactly one", r1.Drain, r2.Drain)
	}
	victim, survivor := w1, w2
	if r2.Drain {
		victim, survivor = w2, w1
	}

	// The victim retires mid-grant: completes one more job, returns
	// the rest unprocessed.
	victim.process(1)
	returned := make(map[int32]bool)
	for _, j := range victim.held {
		returned[j.Chunk] = true
	}
	if len(returned) == 0 {
		t.Fatal("victim had nothing left to return — grant too small")
	}
	victim.finish(true)

	// The survivor mops up everything, including the returned chunks.
	for {
		survivor.process(len(survivor.held))
		g := survivor.grant(8)
		if g.Done {
			break
		}
		if len(g.Jobs) == 0 && !g.Done {
			t.Fatal("empty non-done grant")
		}
	}
	survivor.finish(false)

	if err := <-masterDone; err != nil {
		t.Fatalf("master: %v", err)
	}
	_, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, 2000))
	for id := range returned {
		if !survivor.all[id] {
			t.Fatalf("returned chunk %d never re-executed", id)
		}
		if victim.all[id] {
			t.Fatalf("returned chunk %d also processed by the victim", id)
		}
	}
}

func TestDrainReturnOverlapFailsRun(t *testing.T) {
	// Returning a chunk that was already completed would double-count
	// it; the master must fail the run loudly.
	cfg, _ := fixture(t, 1000, 2, 2, 1, 0)
	_, headAddr := startHead(t, cfg)
	_, masterAddr, masterDone := startMaster(t, cfg, headAddr, 1)

	w := newRawWorker(t, masterAddr, cfg)
	if g := w.grant(2); len(g.Jobs) == 0 {
		t.Fatal("no jobs granted")
	}
	w.process(1)
	dup := w.done[0]
	enc, err := gr.EncodeReduction(w.red)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.c.Send(&wire.Message{
		Kind: wire.KindSlaveResult, Object: enc,
		Completed: w.done, Returned: []int32{dup},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-masterDone:
		if err == nil || !strings.Contains(err.Error(), "returned chunk") {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master accepted an overlapping return")
	}
}

// elasticFixture builds a two-site deployment with paced compute on a
// scaled clock so the controller sees real emulated progress. Small
// refill batches keep master<->head traffic flowing for the whole
// run — that traffic is both the controller's progress feed and the
// channel scale commands are absorbed on.
func elasticFixture(t *testing.T, coresCloud int) (DeployConfig, int64) {
	t.Helper()
	const records = 6000
	cfg, _ := fixture(t, records, 4, 2, 1, coresCloud)
	setAppCost(t, &cfg, "3ms")
	cfg.Clock = netsim.Scaled(0.005)
	cfg.Batch = 2
	cfg.JobsPerRequest = 1
	return cfg, records
}

func TestElasticScaleUpEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Two paced workers face ~12s of emulated work against a 4s
	// deadline: the controller must boot extra cloud workers, the
	// provisioner must join them mid-run, and the counts stay exact.
	cfg, records := elasticFixture(t, 1)
	cfg.Elastic = &elastic.Config{
		Site: "cloud", Deadline: 4 * time.Second,
		MinWorkers: 1, MaxWorkers: 6, StepUp: 2,
		BootLatency: 500 * time.Millisecond, Interval: 500 * time.Millisecond,
		InstanceRate: 0.17, EgressRate: 0.12,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Words{Width: 12, Vocab: 64, Seed: 31}
	checkCounts(t, res.Final, wantCounts(gen, records))
	el := res.Report.Elastic
	if el == nil {
		t.Fatal("no elastic report")
	}
	if el.Boots == 0 || el.Peak <= 1 {
		t.Fatalf("no scale-up happened: boots=%d peak=%d events=%v", el.Boots, el.Peak, el.Events)
	}
	if el.InstanceSecs <= 0 || el.TotalUSD <= 0 {
		t.Fatalf("billing not accrued: %+v", el)
	}
}

func TestElasticScaleDownDrainsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Four cloud workers against a very loose deadline: the controller
	// must drain the surplus mid-run, and drained workers' returned
	// chunks must all be re-executed (exact counts).
	cfg, records := elasticFixture(t, 4)
	cfg.Elastic = &elastic.Config{
		Site: "cloud", Deadline: 300 * time.Second,
		MinWorkers: 1, MaxWorkers: 4,
		BootLatency: 500 * time.Millisecond, Interval: 500 * time.Millisecond,
		InstanceRate: 0.17, EgressRate: 0.12,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Words{Width: 12, Vocab: 64, Seed: 31}
	checkCounts(t, res.Final, wantCounts(gen, records))
	el := res.Report.Elastic
	if el == nil {
		t.Fatal("no elastic report")
	}
	if el.Drains == 0 {
		t.Fatalf("no scale-down happened: %+v", el)
	}
	if first := el.Events[0].AtEmu; first >= res.Report.TotalWall {
		t.Fatalf("scale-down at %v only fired at run end %v", first, res.Report.TotalWall)
	}
	if !el.MetDeadline {
		t.Fatalf("loose deadline missed: wall=%v report=%+v", res.Report.TotalWall, el)
	}
}
