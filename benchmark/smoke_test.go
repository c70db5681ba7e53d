package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// shrunk returns the workload at 1/div size on an instant clock, for
// the smoke test: same deployment shape, no pacing.
func (w *workload) shrunk(div int64) *workload {
	out := *w
	out.scale = 0
	out.records = w.records / div
	out.params = make(map[string]string, len(w.params))
	for k, v := range w.params {
		out.params[k] = v
	}
	if pages, ok := out.params["pages"]; ok {
		n, _ := strconv.ParseInt(pages, 10, 64)
		out.params["pages"] = strconv.FormatInt(n/div, 10)
	}
	out.jobs = w.jobs / 4
	out.warmups = 1
	return &out
}

// TestSmoke runs all four workloads at 1/100 size on an instant clock,
// timed and traced, and checks what the real benchmark checks: every
// run passes the oracle, and each mode emits exactly the metrics it
// declares.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		small := w.shrunk(100)
		for _, traced := range []bool{false, true} {
			d, err := measure(small, 1, 0.3, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if d.Failed != 0 || d.Attempted < minTrials {
				t.Errorf("%s traced=%v: %d of %d runs failed: %v", w.name, traced, d.Failed, d.Attempted, d.Failures)
			}
			if d.Digest == "" || d.Digest != d.OracleDigest {
				t.Errorf("%s traced=%v: digest %q, oracle %q", w.name, traced, d.Digest, d.OracleDigest)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			if len(d.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(d.Metrics), len(defs))
			}
			for _, def := range defs {
				if _, ok := d.Metrics[def.Name]; !ok {
					t.Errorf("%s traced=%v: declared metric %s not emitted", w.name, traced, def.Name)
				}
			}
		}
	}
}

// TestFailedRunIsCaught: a run whose result departs from the oracle
// must count as failed, or `failed` means nothing.
func TestFailedRunIsCaught(t *testing.T) {
	in, err := workloadByName("kmeans-hybrid").shrunk(100).setUp(1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	in.oracle.counts[0]++
	if tr := in.run(nil); tr.failure == "" {
		t.Error("a run that disagrees with the oracle passed")
	}
}

// TestNamesMatchBenchmarkJSON guards against drift between the metric
// and workload names this program emits and the ones BENCHMARK.json
// declares to the driver.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := decl.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, got, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %s: bad name or why over 200 characters", w.name)
		}
	}
	check := func(kind string, declared []metric, defined []metricDef) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(declared), len(defined))
		}
		for i, def := range defined {
			if got := declared[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
				t.Errorf("%s metric %d: declared %+v, defined %+v", kind, i, got, def)
			}
			if !name.MatchString(def.Name) {
				t.Errorf("%s metric name %q is not letters, digits, _ . -", kind, def.Name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}
