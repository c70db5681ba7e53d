package bench

import (
	"strings"
	"testing"
	"time"

	"cloudburst/internal/store"
)

func tinyChaos(seed int64) ChaosParams {
	p := DefaultChaos(seed)
	p.Heartbeat = 25 * time.Millisecond
	// Back off in microseconds: the tiny specs run unpaced.
	p.Retry = store.RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Microsecond}
	p.Retry.Seed = uint64(seed)
	return p
}

func TestChaosMatchesCleanRun(t *testing.T) {
	tab, err := Chaos(tinySpec(), tinySim(), tinyChaos(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, faulted := tab.Row("clean"), tab.Row("faulted")
	if !tab.Match {
		t.Fatalf("faulted digest %q != clean %q", faulted.Digest, clean.Digest)
	}
	f := faulted.Report.Faults
	if f.Injected == 0 {
		t.Fatal("chaos run injected nothing")
	}
	if f.Retries == 0 || f.BackoffEmu <= 0 {
		t.Fatalf("no retries recorded: %+v", f)
	}
	if b := clean.Report.Faults; b.Any() {
		t.Fatalf("baseline saw faults: %+v", b)
	}
	out := tab.Render("chaos", ChaosColumns)
	if !strings.Contains(out, "results match") || !strings.Contains(out, "injected") {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestChaosInjectionReproducible(t *testing.T) {
	p := tinyChaos(21)
	for i := 0; i < 2; i++ {
		tab, err := Chaos(tinySpec(), tinySim(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !tab.Match {
			t.Fatal("chaos run diverged from clean run")
		}
		// FirstN injections are deterministic in the plan seed
		// regardless of request interleaving; every run must see at
		// least that many.
		if got := tab.Row("faulted").Report.Faults.Injected; got < int64(p.FirstN) {
			t.Fatalf("run %d injected %d < firstN %d", i, got, p.FirstN)
		}
	}
}
