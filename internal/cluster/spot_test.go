package cluster

import (
	"strings"
	"testing"
	"time"

	"cloudburst/internal/elastic"
	"cloudburst/internal/faults"
	"cloudburst/internal/gr"
	"cloudburst/internal/netsim"
	"cloudburst/internal/wire"
	"cloudburst/internal/workload"
)

// Spot-preemption tests: checkpoint adoption on unwarned kills, the
// checkpoint-vs-delivered-result supersede rule, the warned-drain /
// kill race, and the revocation trace end to end. Conservation is
// always the same invariant — no chunk lost, none double-counted —
// proven by exact word counts against the sequential reference.

// startMasterLogged is startMaster with a log tap, so tests can wait
// for asynchronous master-side transitions (slave loss, adoption)
// instead of sleeping.
func startMasterLogged(t *testing.T, cfg DeployConfig, headAddr string, slaves int, logs chan<- string) (*Master, string, chan error) {
	t.Helper()
	master, err := NewMaster(MasterConfig{
		Site: "local", App: cfg.App, Cores: slaves, Slaves: slaves,
		Batch: 8,
		Logf: func(format string, args ...any) {
			select {
			case logs <- strings.ReplaceAll(format, "%", "") + join(args):
			default:
			}
		},
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

func join(args []any) string {
	var b strings.Builder
	for _, a := range args {
		b.WriteString(" ")
		switch v := a.(type) {
		case string:
			b.WriteString(v)
		}
	}
	return b.String()
}

// awaitLog blocks until a master log line containing want arrives.
func awaitLog(t *testing.T, logs <-chan string, want string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line := <-logs:
			if strings.Contains(line, want) {
				return
			}
		case <-deadline:
			t.Fatalf("no %q log within 10s", want)
		}
	}
}

// checkpointNow ships a checkpoint for everything the worker has
// processed since its last report (the cumulative covered set).
func checkpointNow(t *testing.T, w *rawWorker, seq int) {
	t.Helper()
	enc, err := gr.EncodeReduction(w.red)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.c.Send(&wire.Message{
		Kind: wire.KindCheckpoint, Seq: seq, Object: enc,
		Completed: append([]int32(nil), w.done...),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointAdoptedOnUnwarnedKill(t *testing.T) {
	// A worker processes half its grant, checkpoints, and is killed
	// without warning. The master must adopt the checkpoint (covered
	// chunks are NOT re-executed) and requeue only the remainder.
	cfg, gen := fixture(t, 2000, 2, 2, 2, 0)
	head, headAddr := startHead(t, cfg)
	logs := make(chan string, 64)
	_, masterAddr, masterDone := startMasterLogged(t, cfg, headAddr, 2, logs)

	w1 := newRawWorker(t, masterAddr, cfg)
	w2 := newRawWorker(t, masterAddr, cfg)
	if g := w1.grant(6); len(g.Jobs) < 2 {
		t.Fatalf("w1 got %d jobs, want >= 2", len(g.Jobs))
	}
	w1.process(len(w1.held) / 2)
	covered := append([]int32(nil), w1.done...)
	remainder := make(map[int32]bool)
	for _, j := range w1.held {
		remainder[j.Chunk] = true
	}
	checkpointNow(t, w1, 1)
	// Unwarned revocation: the connection just dies. The checkpoint
	// races the close on the same stream; the master reads the push
	// before seeing the error.
	w1.c.Close()
	awaitLog(t, logs, "adopted checkpoint")

	// The survivor mops up everything still unaccounted.
	for {
		w2.process(len(w2.held))
		g := w2.grant(8)
		if g.Done {
			break
		}
	}
	w2.finish(false)

	if err := <-masterDone; err != nil {
		t.Fatalf("master: %v", err)
	}
	_, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, 2000))
	for _, id := range covered {
		if w2.all[id] {
			t.Fatalf("checkpointed chunk %d was re-executed despite adoption", id)
		}
	}
	for id := range remainder {
		if !w2.all[id] {
			t.Fatalf("unckeckpointed chunk %d of the dead worker never re-executed", id)
		}
	}
}

func TestCheckpointSupersededByDeliveredResult(t *testing.T) {
	// A worker checkpoints and then delivers its full result (the
	// warned-drain flush): the delivered result must supersede the
	// stored checkpoint — merging both would double-count every covered
	// chunk, which the exact counts would expose.
	cfg, gen := fixture(t, 2000, 2, 2, 2, 0)
	head, headAddr := startHead(t, cfg)
	_, masterAddr, masterDone := startMaster(t, cfg, headAddr, 2)

	w1 := newRawWorker(t, masterAddr, cfg)
	w2 := newRawWorker(t, masterAddr, cfg)
	if g := w1.grant(4); len(g.Jobs) == 0 {
		t.Fatal("w1 got no jobs")
	}
	w1.process(len(w1.held))
	checkpointNow(t, w1, 1)
	w1.finish(false) // delivered result supersedes the checkpoint

	for {
		w2.process(len(w2.held))
		g := w2.grant(8)
		if g.Done {
			break
		}
	}
	w2.finish(false)

	if err := <-masterDone; err != nil {
		t.Fatalf("master: %v", err)
	}
	_, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, 2000))
}

func TestPreemptWarnAcknowledged(t *testing.T) {
	// KindPreemptWarn is a request: the master must mark the connection
	// draining and ack before the slave abandons anything, so the
	// returned chunks always find a live re-execution path.
	cfg, gen := fixture(t, 2000, 2, 2, 2, 0)
	head, headAddr := startHead(t, cfg)
	_, masterAddr, masterDone := startMaster(t, cfg, headAddr, 2)

	w1 := newRawWorker(t, masterAddr, cfg)
	w2 := newRawWorker(t, masterAddr, cfg)
	if g := w1.grant(4); len(g.Jobs) < 2 {
		t.Fatalf("w1 got %d jobs, want >= 2", len(g.Jobs))
	}
	resp, err := w1.c.Call(&wire.Message{Kind: wire.KindPreemptWarn})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindAck {
		t.Fatalf("preempt-warn answered %v, want ack", resp.Kind)
	}
	// Accelerated drain: process one, abandon the rest.
	w1.process(1)
	w1.finish(true)

	for {
		w2.process(len(w2.held))
		g := w2.grant(8)
		if g.Done {
			break
		}
	}
	w2.finish(false)

	if err := <-masterDone; err != nil {
		t.Fatalf("master: %v", err)
	}
	_, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, 2000))
}

func TestWarnedDrainRacingKillConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// A real slave is warned and then killed while its accelerated
	// drain may still be in flight. Whether the flush lands (drain
	// counted, returned chunks requeued) or the kill wins (checkpoint
	// adopted or everything requeued), the counts must stay exact.
	const records = 6000
	cfg, gen := fixture(t, records, 4, 4, 2, 0)
	setAppCost(t, &cfg, "20ms")
	clk := netsim.Scaled(0.01)
	cfg.Clock = clk
	head, headAddr := startHead(t, cfg)
	_, masterAddr, masterDone := startMaster(t, cfg, headAddr, 2)

	mk := func() *Slave {
		sl, err := NewSlave(SlaveConfig{
			Site: "local", App: cfg.App, Cores: 1,
			HomeStore: cfg.Sites[0].HomeStore, CheckpointJobs: 1,
			JobsPerRequest: 2, Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sl
	}
	victim, survivor := mk(), mk()
	victimDone, survivorDone := make(chan error, 1), make(chan error, 1)
	go func() { _, err := victim.Run(masterAddr, dialTCP); victimDone <- err }()
	go func() { _, err := survivor.Run(masterAddr, dialTCP); survivorDone <- err }()

	time.Sleep(150 * time.Millisecond) // let both take real work
	victim.PreemptWarn(2 * time.Second)
	time.Sleep(5 * time.Millisecond) // drain mid-flight
	victim.Kill()

	if err := <-survivorDone; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if err := <-victimDone; err != nil && !victim.Revoked() {
		t.Fatalf("victim failed without being revoked: %v", err)
	}
	if err := <-masterDone; err != nil {
		t.Fatalf("master: %v", err)
	}
	_, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, records))
}

func TestSpotRevocationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Full deployment under a revocation trace: the elastic controller
	// bursts, the preemptor kills provisioned spot workers on schedule,
	// checkpoints bound the re-execution, and the controller replaces
	// lost capacity (on-demand once the fallback trips). Counts stay
	// exact throughout.
	cfg, records := elasticFixture(t, 1)
	// The trace is paced on the emulated clock; a gentler scale keeps
	// the schedule long enough in wall time that the burst fleet is
	// actually up when the preemptor strikes, even under -race.
	cfg.Clock = netsim.Scaled(0.05)
	cfg.Elastic = &elastic.Config{
		Site: "cloud", Deadline: 4 * time.Second,
		MinWorkers: 1, MaxWorkers: 6, StepUp: 2,
		BootLatency: 500 * time.Millisecond, Interval: 500 * time.Millisecond,
		InstanceRate: 0.17, EgressRate: 0.12,
		SpotRate: 0.05, OnDemandFallback: 1,
	}
	cfg.CheckpointJobs = 2
	cfg.Revocations = faults.NewRevocationTrace(7, faults.RevocationSpec{
		Site: "cloud", Count: 2, WarnedFrac: 0,
		Start: 2500 * time.Millisecond, Spread: 1500 * time.Millisecond,
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Words{Width: 12, Vocab: 64, Seed: 31}
	checkCounts(t, res.Final, wantCounts(gen, records))
	p := res.Report.Preemption
	if p == nil {
		t.Fatal("no preemption report")
	}
	if p.Revocations == 0 {
		t.Fatalf("trace fired no revocations: %+v", p)
	}
	if p.Unwarned != p.Revocations {
		t.Fatalf("unwarned trace produced warned revocations: %+v", p)
	}
	el := res.Report.Elastic
	if el == nil {
		t.Fatal("no elastic report")
	}
	if el.Revocations != p.Revocations {
		t.Fatalf("controller saw %d revocations, trace recorded %d", el.Revocations, p.Revocations)
	}
	if el.Replacements == 0 {
		t.Fatalf("no replacement capacity booted: %+v", el)
	}
}
