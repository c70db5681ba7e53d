package bench

import (
	"fmt"
	"os"

	"cloudburst/internal/advisor"
)

// The advisor experiment is the warm-vs-cold sequence: the same
// deadline-constrained workload run repeatedly, with each completed
// run's report persisted into the advisor's history database and the
// next run planned from it. Run 1 (cold) starts from the token cloud
// seed and pays the elastic controller's reactive ramp — several
// "deadline at risk" scale-up rounds before the fleet fits the ETA.
// Run 2 (warm) asks the advisor first: the plan's core count seeds the
// controller at t=0, so the fleet boots once, up front, and the ramp
// events disappear. Run 3 (warm-2) plans from two runs of history —
// including run 2's own prediction error — showing the feedback loop
// converging. Digests must be identical across every run: planning
// changes when capacity arrives, never what is computed.

// AdvisorSweep measures the local-only baseline, derives the deadline,
// then runs the cold/warm/warm-2 sequence against the advisor history
// database in historyDir (created if needed; pre-existing records are
// kept — a second sweep in the same dir plans from more history). It
// is a sequence, not a sweep: each run is planned from the records the
// runs before it appended. scaleUp projects egress to paper scale for
// the dollar columns, as in ElasticSweep.
func AdvisorSweep(spec AppSpec, sim SimParams, scaleUp float64, historyDir string, logf func(string, ...any)) (*Table, error) {
	if historyDir == "" {
		// No durable database requested: the sequence still needs one to
		// warm itself, so use a throwaway.
		tmp, err := os.MkdirTemp("", "cloudburst-history-")
		if err != nil {
			return nil, err
		}
		historyDir = tmp
	}
	st, err := advisor.Open(historyDir)
	if err != nil {
		return nil, fmt.Errorf("bench: advisor history: %w", err)
	}
	d, err := newDeadlineScenario(spec, sim, scaleUp, logf)
	if err != nil {
		return nil, err
	}
	data, err := CachedDataset(d.base.Spec)
	if err != nil {
		return nil, err
	}
	var dataBytes int64
	for _, f := range data.Files {
		dataBytes += int64(len(f))
	}
	app := d.base.Spec.Name

	t := &Table{App: app, Iterations: 1}
	var plan *advisor.Plan // nil plans the cold run
	for _, label := range []string{"cold", "warm", "warm-2"} {
		if label != "cold" {
			history, err := st.Load()
			if err != nil {
				return nil, err
			}
			// LocalPct 50 names every sequence run's link class env-50/50.
			p := advisor.Advise(history, advisor.Request{
				App: app, Env: "env-50/50", DataBytes: dataBytes,
				Deadline: d.deadline, MaxCloud: elasticCloudOver,
				LocalWorkers: elasticLocalCores,
				BootLatency:  d.boot, InstanceRate: d.coreRate,
				EgressRate: d.egressRate,
			})
			plan = &p
		}
		one, err := Sweep(d.base, 0, []Variant{{Label: label, Set: func(c *RunConfig) {
			c.Deploy.Elastic = d.controller()
			if plan != nil && plan.Burst {
				c.Deploy.Elastic.SeedWorkers = plan.CloudCores
			}
		}}})
		if err != nil {
			return nil, err
		}
		row := one.Rows[0]
		rec, err := advisor.FromReport(row.Report, advisor.ExtractOptions{
			DataBytes: dataBytes, Deadline: d.deadline, Plan: plan,
		})
		if err != nil {
			return nil, err
		}
		if err := st.Append(rec); err != nil {
			return nil, fmt.Errorf("bench: advisor history append: %w", err)
		}
		row.Plan, row.Record = plan, rec
		t.Env = one.Env
		t.Rows = append(t.Rows, row)
	}
	d.finish(t)
	return t, nil
}

// AdvisorColumns are the sequence's metrics: each run's planned fleet,
// reactive ramp, churn and bill, and the wall-clock prediction error
// fed back into history.
var AdvisorColumns = []Column{
	col("planned", "%s", func(r *Row) any {
		if r.Plan == nil {
			return "-"
		}
		return fmt.Sprint(r.Plan.CloudCores)
	}),
	totalCol, deadlineCol,
	col("ramps", "%d", func(r *Row) any { n, _ := r.ramp(); return n }),
	col("lastΔ", "%.1f", func(r *Row) any { _, last := r.ramp(); return last }),
	col("boots/dr", "%s", func(r *Row) any { return fmt.Sprintf("%d/%d", r.Elastic.Boots, r.Elastic.Drains) }),
	col("peak", "%d", func(r *Row) any { return r.Elastic.Peak }),
	col("inst-s", "%.0f", func(r *Row) any { return r.InstanceSecs }),
	col("total $", "%.4f", func(r *Row) any { return r.TotalUSD }),
	col("wallerr%", "%s", func(r *Row) any {
		if r.Plan == nil {
			return "-"
		}
		return fmt.Sprintf("%+.1f", r.Record.WallErrPct)
	}),
}
