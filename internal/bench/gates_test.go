package bench

import (
	"strings"
	"testing"
	"time"

	"cloudburst/internal/advisor"
	"cloudburst/internal/metrics"
)

// Each gate is pinned by one synthetic table that passes and one
// mutation per criterion that must fail it with the criterion's own
// message.

type gateCase struct {
	name string
	// breaks mutates a passing set of tables so one criterion fails.
	breaks func(ts []*Table)
	want   string
}

func checkGate(t *testing.T, gate func([]*Table) (string, error), passing func() []*Table, wantWin string, cases []gateCase) {
	t.Helper()
	msg, err := gate(passing())
	if err != nil {
		t.Fatalf("passing tables failed: %v", err)
	}
	if !strings.HasPrefix(msg, wantWin) || !strings.HasSuffix(msg, "✓") {
		t.Fatalf("win message = %q, want prefix %q", msg, wantWin)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := passing()
			c.breaks(ts)
			_, err := gate(ts)
			if err == nil || err.Error() != c.want {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func secsRow(label string, secs float64) Row {
	return Row{Label: label, TotalEmu: time.Duration(secs * float64(time.Second))}
}

func setSecs(r *Row, secs float64) { r.TotalEmu = time.Duration(secs * float64(time.Second)) }

func TestCheckAutotune(t *testing.T) {
	passing := func() []*Table {
		return []*Table{
			{Env: "env-cloud", Rows: []Row{secsRow("static-2", 100), secsRow("static-8", 60), secsRow("autotune", 58)}},
			{Env: "env-50/50", Rows: []Row{secsRow("static-2", 100), secsRow("static-8", 50), secsRow("autotune", 90)}},
		}
	}
	checkGate(t, CheckAutotune, passing, "autotune win check: 58.0s vs best static 60.0s", []gateCase{
		{"no env-cloud cell", func(ts []*Table) { ts[0].Env = "env-local" },
			"autotune grid has no env-cloud cell"},
		{"missing row", func(ts []*Table) { ts[0].Rows = ts[0].Rows[:2] },
			"autotune grid is missing rows"},
		{"worse than best static", func(ts []*Table) { setSecs(&ts[0].Rows[2], 70) },
			"autotune 70.0s is worse than 0.95x the best static 60.0s"},
		{"not 1.2x over static-2", func(ts []*Table) { setSecs(&ts[0].Rows[0], 65); setSecs(&ts[0].Rows[2], 56) },
			"autotune 56.0s is not 1.2x faster than static-2 65.0s"},
	})
}

func TestCheckElastic(t *testing.T) {
	passing := func() []*Table {
		static := secsRow("static-over", 30)
		static.MetDeadline, static.TotalUSD = true, 0.06
		el := secsRow("elastic", 50)
		el.MetDeadline, el.TotalUSD, el.Elastic.Boots = true, 0.02, 6
		drain := secsRow("elastic-drain", 45)
		drain.MetDeadline, drain.Elastic.Drains = true, 23
		return []*Table{{Deadline: 66 * time.Second, Rows: []Row{secsRow("local-only", 78), static, el, drain}}}
	}
	checkGate(t, CheckElastic, passing, "elastic win check: local-only 78.0s misses, elastic 50.0s at $0.0200", []gateCase{
		{"missing row", func(ts []*Table) { ts[0].Rows = ts[0].Rows[1:] },
			"elastic sweep is missing rows"},
		{"deadline not binding", func(ts []*Table) { ts[0].Rows[0].MetDeadline = true },
			"local-only met the 66.0s deadline (78.0s) — deadline is not binding"},
		{"static-over misses", func(ts []*Table) { ts[0].Rows[1].MetDeadline = false },
			"static-over missed the 66.0s deadline (30.0s)"},
		{"elastic misses", func(ts []*Table) { ts[0].Rows[2].MetDeadline = false },
			"elastic missed the 66.0s deadline (50.0s)"},
		{"no boots", func(ts []*Table) { ts[0].Rows[2].Elastic.Boots = 0 },
			"elastic booted no workers — the controller never scaled up"},
		{"not cheaper", func(ts []*Table) { ts[0].Rows[2].TotalUSD = 0.06 },
			"elastic cost $0.0600 is not below static-over $0.0600"},
		{"no drains", func(ts []*Table) { ts[0].Rows[3].Elastic.Drains = 0 },
			"elastic-drain drained no workers — the controller never scaled down"},
		{"drain misses", func(ts []*Table) { ts[0].Rows[3].MetDeadline = false },
			"elastic-drain missed the 66.0s deadline (45.0s)"},
	})
}

func TestCheckSpot(t *testing.T) {
	passing := func() []*Table {
		warned := secsRow("warned-drain", 51)
		warned.Preemption = metrics.PreemptionReport{Revocations: 3, DrainsCompleted: 1, DrainsAborted: 2}
		ckpt := secsRow("unwarned-kill", 53)
		ckpt.MetDeadline, ckpt.TotalUSD = true, 0.017
		ckpt.Preemption = metrics.PreemptionReport{Revocations: 3, JobsRecovered: 60, JobsRequeued: 4}
		ckpt.Elastic.OnDemandWorkers = 4
		nockpt := secsRow("unwarned-nockpt", 70)
		nockpt.TotalUSD = 0.03
		nockpt.Preemption = metrics.PreemptionReport{Revocations: 3, JobsRequeued: 69}
		return []*Table{{Deadline: 65 * time.Second, Rows: []Row{secsRow("clean", 51), warned, ckpt, nockpt}}}
	}
	checkGate(t, CheckSpot, passing, "spot win check: 3 revocations; drains 1/2; checkpoints save 60 jobs", []gateCase{
		{"missing row", func(ts []*Table) { ts[0].Rows = ts[0].Rows[1:] },
			"spot sweep is missing rows"},
		{"trace never fired", func(ts []*Table) { ts[0].Rows[2].Preemption.Revocations = 0 },
			"unwarned-kill revoked no workers — the trace never fired"},
		{"no drains", func(ts []*Table) { ts[0].Rows[1].Preemption.DrainsCompleted = 0 },
			"warned-drain completed no drains — every warning window closed mid-flush"},
		{"no adoption", func(ts []*Table) { ts[0].Rows[2].Preemption.JobsRecovered = 0 },
			"unwarned-kill adopted no checkpointed work"},
		{"no requeue cut", func(ts []*Table) { ts[0].Rows[2].Preemption.JobsRequeued = 69 },
			"checkpointing did not cut re-execution: 69 requeued vs 69 without"},
		{"no wall cut", func(ts []*Table) { setSecs(&ts[0].Rows[2], 70) },
			"checkpointing did not cut wall time: 70.0s vs 70.0s without"},
		{"checkpointed misses", func(ts []*Table) { ts[0].Rows[2].MetDeadline = false },
			"unwarned-kill missed the 65.0s deadline (53.0s) despite checkpoints and fallback"},
		{"no-checkpoint meets", func(ts []*Table) { ts[0].Rows[3].MetDeadline = true },
			"unwarned-nockpt met the deadline anyway (70.0s <= 65.0s) — the trace is too gentle to discriminate"},
		{"cost blowup", func(ts []*Table) { ts[0].Rows[2].TotalUSD = 0.04 },
			"checkpointed recovery cost blew up: $0.0400 vs $0.0300 without"},
		{"no on-demand fallback", func(ts []*Table) { ts[0].Rows[2].Elastic.OnDemandWorkers = 0 },
			"no variant fell back to on-demand replacements after 3 revocations"},
	})
}

func TestCheckBuffer(t *testing.T) {
	passing := func() []*Table {
		table := func(app string, base, staged float64) *Table {
			no := secsRow("no-buffer", base)
			no.EgressBytes = 9 << 20
			cold := secsRow("cold-buffer", base)
			cold.Retrieval.BufferMisses = 352
			st := secsRow("staged-buffer", staged)
			st.Retrieval.BufferHits, st.Retrieval.StagedBytes = 344, 1<<20
			st.EgressBytes = 3 << 20
			return &Table{App: app, Rows: []Row{no, cold, st}}
		}
		return []*Table{table("knn", 18, 19), table("pagerank", 180, 135)}
	}
	checkGate(t, CheckBuffer, passing, "buffer win check: pagerank staged 135.0s vs 180.0s no-buffer (1.33x), egress 3.0 MB vs 9.0 MB (67% saved)", []gateCase{
		{"missing row", func(ts []*Table) { ts[0].Rows = ts[0].Rows[:2] },
			"buffer knn ablation is missing the staged-buffer row"},
		{"cold arm unrouted", func(ts []*Table) { ts[1].Rows[1].Retrieval.BufferMisses = 0 },
			"buffer pagerank cold-buffer routed no reads through the buffer"},
		{"staged arm unrouted", func(ts []*Table) { ts[0].Rows[2].Retrieval.BufferHits = 0 },
			"buffer knn staged-buffer routed no reads through the buffer"},
		{"nothing staged", func(ts []*Table) { ts[1].Rows[2].Retrieval.StagedBytes = 0 },
			"buffer pagerank staged-buffer staged nothing"},
		{"no wall cut", func(ts []*Table) { setSecs(&ts[1].Rows[2], 180) },
			"staged buffer did not cut wall time: 180.0s vs 180.0s without"},
		{"no egress cut", func(ts []*Table) { ts[1].Rows[2].EgressBytes = 9 << 20 },
			"staged buffer did not cut S3 egress: 9437184 vs 9437184 bytes without"},
	})
}

func TestCheckSync(t *testing.T) {
	passing := func() []*Table {
		par := secsRow("streamed-parallel", 90)
		par.Sync = metrics.SyncReport{Parts: 33, StreamedBytes: 9 << 20, MaxParallel: 8}
		return []*Table{{Rows: []Row{secsRow("monolithic-serial", 120), par}}}
	}
	checkGate(t, CheckSync, passing, "sync win check: streamed-parallel 90.0s vs monolithic 120.0s (1.33x), 33 parts, max merge parallelism 8", []gateCase{
		{"missing row", func(ts []*Table) { ts[0].Rows = ts[0].Rows[:1] },
			"sync ablation is missing rows"},
		{"contaminated baseline", func(ts []*Table) { ts[0].Rows[0].Sync.Parts = 2 },
			"monolithic-serial streamed 2 parts — the baseline is contaminated"},
		{"no parts", func(ts []*Table) { ts[0].Rows[1].Sync.Parts = 0 },
			"sync streamed-parallel streamed no object parts"},
		{"no streamed bytes", func(ts []*Table) { ts[0].Rows[1].Sync.StreamedBytes = 0 },
			"sync streamed-parallel counted no streamed bytes"},
		{"no win", func(ts []*Table) { setSecs(&ts[0].Rows[1], 120) },
			"sync streamed-parallel did not beat monolithic-serial: 120.0s vs 120.0s"},
		{"win under 1.15x", func(ts []*Table) { setSecs(&ts[0].Rows[1], 110) },
			"sync streamed-parallel is only 1.09x over monolithic-serial, want >= 1.15x"},
		{"serial merges", func(ts []*Table) { ts[0].Rows[1].Sync.MaxParallel = 1 },
			"streamed-parallel never merged concurrently (max parallelism 1)"},
	})
}

func TestCheckAdvisor(t *testing.T) {
	ramp := func(at ...float64) metrics.ElasticReport {
		var el metrics.ElasticReport
		for _, s := range at {
			el.Events = append(el.Events, metrics.ScaleEvent{
				AtEmu: time.Duration(s * float64(time.Second)), From: 2, To: 8, Reason: "deadline at risk",
			})
		}
		return el
	}
	passing := func() []*Table {
		cold := secsRow("cold", 52)
		cold.Elastic, cold.TotalUSD = ramp(5, 28), 0.021
		warm := secsRow("warm", 51)
		warm.Elastic, warm.TotalUSD = ramp(5), 0.020
		warm.Plan = &advisor.Plan{Burst: true, CloudCores: 6, Confidence: 0.5}
		warm.Record = &advisor.Record{WallErrPct: -2.5}
		warm2 := secsRow("warm-2", 55)
		warm2.Elastic = ramp(6)
		return []*Table{{Rows: []Row{cold, warm, warm2}}}
	}
	checkGate(t, CheckAdvisor, passing, "advisor win check: plan 6 cores (conf 0.50); warm 51.0s vs cold 52.0s, ramp events 1 vs 2 (23.0s of discovery saved), cost delta -0.0010 $, wall prediction err -2.5%", []gateCase{
		{"missing row", func(ts []*Table) { ts[0].Rows = ts[0].Rows[:2] },
			"advisor sequence is missing rows"},
		{"cold needed no ramp", func(ts []*Table) { ts[0].Rows[0].Elastic = ramp() },
			"cold run needed no reactive ramp — the deadline is not binding"},
		{"no burst plan", func(ts []*Table) { ts[0].Rows[1].Plan.Burst = false },
			"advisor did not recommend a burst from the cold run's history: " + advisor.Plan{CloudCores: 6, Confidence: 0.5}.String()},
		{"best warm slower", func(ts []*Table) { setSecs(&ts[0].Rows[1], 53); setSecs(&ts[0].Rows[2], 54) },
			"best warm run 53.0s is slower than cold-start 52.0s"},
		{"ramp kept", func(ts []*Table) { ts[0].Rows[2].Elastic = ramp(6, 20) },
			"warm-2 run still needed 2 reactive ramp events (cold: 2) — warm start did not replace the ramp"},
		{"warm run far slower", func(ts []*Table) { setSecs(&ts[0].Rows[2], 58) },
			"warm-2 run 58.0s is >1.10x cold-start 52.0s"},
	})
	// The advisor's own warm-start boot is the ramp's replacement, not
	// part of it.
	r := Row{Elastic: ramp(5)}
	r.Elastic.Events = append(r.Elastic.Events, metrics.ScaleEvent{From: 2, To: 6, Reason: "advisor warm start"})
	if n, last := r.ramp(); n != 1 || last != 5 {
		t.Fatalf("ramp() = %d, %.1f; want 1, 5.0", n, last)
	}
}

func TestSweepMatch(t *testing.T) {
	base := RunConfig{Spec: tinySpec(), LocalPct: 50, LocalCores: 2, CloudCores: 2, Sim: tinySim()}
	same := []Variant{{Label: "a"}, {Label: "b", Set: func(c *RunConfig) { c.Deploy.Scatter = true }}}
	tab, err := Sweep(base, 0, same)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Match || tab.Env != "env-50/50" || tab.Iterations != 1 || len(tab.Rows) != 2 {
		t.Fatalf("table = %+v", tab)
	}
	if r := tab.Row("b"); r == nil || r.CloudCores != 2 || r.Iterations != 1 || r.Report == nil {
		t.Fatalf("row b = %+v", r)
	}
	// One variant computing over different data must clear Match and
	// list every digest.
	diverged := append(same, Variant{Label: "c", Set: func(c *RunConfig) { c.Spec.Records = 24_000 }})
	tab, err = Sweep(base, 0, diverged)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Match {
		t.Fatalf("diverging digest kept Match: %q vs %q", tab.Rows[0].Digest, tab.Rows[2].Digest)
	}
	out := tab.Render("sweep", []Column{totalCol})
	if !strings.Contains(out, "results differ") || !strings.Contains(out, "24000 words") {
		t.Fatalf("render = %q", out)
	}
}
