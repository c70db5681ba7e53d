package bench

import (
	"strings"
	"testing"
)

func TestAblationConsecutive(t *testing.T) {
	tab, err := AblationConsecutive(tinySpec(), tinySim(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0].Label != "consecutive" || tab.Rows[1].Label != "scattered" {
		t.Fatalf("rows = %+v", tab.Rows)
	}
	for _, r := range tab.Rows {
		if !strings.Contains(r.Digest, "20000 words") {
			t.Fatalf("%s computed wrong result: %q", r.Label, r.Digest)
		}
	}
}

func TestAblationFetchThreads(t *testing.T) {
	tab, err := AblationFetchThreads(tinySpec(), tinySim(), []int{1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Env != "env-cloud" {
		t.Fatalf("fetch ablation ran %s", tab.Env)
	}
}

func TestAblationBatch(t *testing.T) {
	tab, err := AblationBatch(tinySpec(), tinySim(), []int{4, 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if got := r.Report.JobsProcessed(); got < 32 {
			t.Fatalf("%s processed %d jobs", r.Label, got)
		}
	}
}

func TestAblationObjectSize(t *testing.T) {
	tab, err := AblationObjectSize(tinySim(), []int64{200, 400}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Both sizes must produce full pagerank results (mass ~1).
	for _, r := range tab.Rows {
		if !strings.Contains(r.Digest, "mass=1.0") {
			t.Fatalf("%s result %q", r.Label, r.Digest)
		}
	}
	// Different graphs compute different ranks: the render lists them.
	out := tab.Render("object size", AblationColumns)
	if tab.Match || !strings.Contains(out, "pages=200") || !strings.Contains(out, "results differ") {
		t.Fatalf("render = %q", out)
	}
}

func TestAblationPooling(t *testing.T) {
	// Compute-dominated configuration (each chunk costs ~2.5 emulated
	// seconds, several jobs per worker) so per-core speed jitter is
	// the decisive factor.
	spec := tinySpec()
	spec.Params["cost"] = "20ms"
	spec.Jobs = 160
	sim := tinySim()
	sim.Scale = 0.01
	tab, err := AblationPooling(spec, sim, 0.6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	dynamic, static := tab.Rows[0], tab.Rows[1]
	// Both must compute the full result.
	for _, r := range tab.Rows {
		if !strings.Contains(r.Digest, "20000 words") {
			t.Fatalf("%s result %q", r.Label, r.Digest)
		}
	}
	// Under heavy jitter, on-demand pooling must beat static
	// partitioning (the paper's load-balancing claim). The race
	// detector skews real CPU costs enough to drown the paced timing,
	// so the shape assertion only runs uninstrumented.
	if !raceEnabled && static.TotalEmu <= dynamic.TotalEmu {
		t.Fatalf("static partition (%v) beat dynamic pooling (%v) despite ±60%% jitter",
			static.TotalEmu, dynamic.TotalEmu)
	}
}
