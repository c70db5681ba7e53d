package cluster

import (
	"strings"
	"testing"
	"time"

	"cloudburst/internal/gr"
	"cloudburst/internal/wire"
)

// TestSlaveConnNewestCheckpointWins: a delayed checkpoint with a lower
// Seq must not replace the newer one it trails, so the lost connection
// adopts the newest and every job that covers is saved from
// re-execution.
func TestSlaveConnNewestCheckpointWins(t *testing.T) {
	cfg, gen := fixture(t, 2000, 2, 2, 2, 0)
	head, headAddr := startHead(t, cfg)
	logs := make(chan string, 64)
	_, masterAddr, masterDone := startMasterLogged(t, cfg, headAddr, 2, logs)

	w1 := newRawWorker(t, masterAddr, cfg)
	w2 := newRawWorker(t, masterAddr, cfg)
	if g := w1.grant(6); len(g.Jobs) < 3 {
		t.Fatalf("w1 got %d jobs, want >= 3", len(g.Jobs))
	}
	w1.process(1)
	stale, err := gr.EncodeReduction(w1.red)
	if err != nil {
		t.Fatal(err)
	}
	staleCovered := append([]int32(nil), w1.done...)
	w1.process(1)
	checkpointNow(t, w1, 2)
	if err := w1.c.Send(&wire.Message{Kind: wire.KindCheckpoint, Seq: 1, Object: stale, Completed: staleCovered}); err != nil {
		t.Fatal(err)
	}
	covered := append([]int32(nil), w1.done...)
	w1.c.Close()
	awaitLog(t, logs, "adopted checkpoint")

	for {
		w2.process(len(w2.held))
		if g := w2.grant(8); g.Done {
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
			t.Fatalf("chunk %d, covered by checkpoint seq 2, was re-executed: the stale seq 1 won", id)
		}
	}
}

// TestSlaveConnDuplicateCompletionFailsRun: a result that reports one
// job complete twice would skew the reduction; the master fails the
// run and names the chunk.
func TestSlaveConnDuplicateCompletionFailsRun(t *testing.T) {
	cfg, _ := fixture(t, 1000, 2, 2, 1, 0)
	_, headAddr := startHead(t, cfg)
	_, masterAddr, masterDone := startMaster(t, cfg, headAddr, 1)

	w := newRawWorker(t, masterAddr, cfg)
	if g := w.grant(2); len(g.Jobs) == 0 {
		t.Fatal("no jobs granted")
	}
	w.process(len(w.held))
	enc, err := gr.EncodeReduction(w.red)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.c.Send(&wire.Message{
		Kind: wire.KindSlaveResult, Object: enc, Completed: append(w.done, w.done[0]),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-masterDone:
		if err == nil || !strings.Contains(err.Error(), "completed chunk") {
			t.Fatalf("err = %v, want a completed chunk it did not hold", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master accepted a duplicate completion")
	}
}
