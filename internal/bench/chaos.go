package bench

import (
	"fmt"

	"cloudburst/internal/cluster"
)

// Chaos runs the hybrid env-50/50 configuration twice — once clean,
// once under the given fault plan — and tabulates both. The scenario's
// claim is the paper's fault-tolerance claim: injected failures cost
// time, never correctness, so the faulted run must compute the
// identical reduction (the table's Match). The faulted run exercises
// the whole recovery stack: injected transients and throttles on the
// S3 views, per-sub-range retries with backoff, and heartbeat-based
// stall detection.
func Chaos(spec AppSpec, sim SimParams, params ChaosParams, logf func(string, ...any)) (*Table, error) {
	return Sweep(RunConfig{
		Spec: spec, LocalPct: 50, LocalCores: 4, CloudCores: 4, Sim: sim,
		Deploy: cluster.DeployConfig{Logf: logf},
	}, 0, []Variant{
		{Label: "clean"},
		{Label: "faulted", Set: func(c *RunConfig) { c.Chaos = &params }},
	})
}

// String describes the fault plan.
func (p ChaosParams) String() string {
	return fmt.Sprintf("seed=%d firstN=%d transient=%.1f%% slowdown=%.1f%% heartbeat=%v",
		p.Seed, p.FirstN, 100*p.TransientProb, 100*p.SlowDownProb, p.Heartbeat)
}

// ChaosColumns are the chaos table's metrics: wall time, the recovery
// counters, and each run's result.
var ChaosColumns = []Column{
	totalCol,
	col("injected", "%d", func(r *Row) any { return r.Report.Faults.Injected }),
	col("retries", "%d", func(r *Row) any { return r.Report.Faults.Retries }),
	col("backoff", "%.2f", func(r *Row) any { return r.Report.Faults.BackoffEmu.Seconds() }),
	col("hb-misses", "%d", func(r *Row) any { return r.Report.Faults.HeartbeatMisses }),
	col("result", "%s", func(r *Row) any { return r.Digest }),
}
