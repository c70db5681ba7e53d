package bench

import (
	"fmt"
	"time"

	"cloudburst/internal/faults"
)

// The spot experiment measures preemption tolerance: the elastic
// deadline run re-provisioned from the revocable spot tier, with the
// same seeded revocation trace replayed against four recovery
// configurations. clean never loses a worker; warned-drain gives every
// revocation a warning window the victim spends on its accelerated
// drain; unwarned-kill revokes without warning and recovers through
// checkpointed partial reductions; unwarned-nockpt replays the same
// kills with checkpointing off, paying full re-execution. Results must
// be digest-identical across every variant — preemption reshuffles who
// computes what (and how often), never what is computed.

const (
	// spotRevocations is the number of trace events; spotStartFrac /
	// spotSpreadFrac place them (as fractions of the measured
	// local-only wall) after the burst fleet has booted but well before
	// the run can finish.
	spotRevocations = 3
	spotStartFrac   = 0.35
	spotSpreadFrac  = 0.30
	// spotWarnFrac sizes the warning window: long enough to drain a
	// grant or two, far too short to finish the run.
	spotWarnFrac = 0.05
	// spotCheckpointJobs is the checkpoint cadence for the recovery
	// variants; at JobsPerRequest=1 it bounds the loss to under two
	// grants.
	spotCheckpointJobs = 2
	// spotRateFrac prices the spot tier as a fraction of the on-demand
	// core rate (2011-era spot discounts ran 60-80%).
	spotRateFrac = 0.3
	// spotODFallback is how many revocations the controller tolerates
	// before replacement boots switch to the non-revocable tier.
	spotODFallback = 2
	// spotTraceSeed makes every variant replay the identical schedule.
	spotTraceSeed = 11
)

// SpotSweep measures the local-only baseline, derives the deadline and
// the revocation schedule from it, and replays the schedule against
// the recovery variants, every one bursting from the spot tier with an
// on-demand fallback. scaleUp projects egress to paper scale for the
// dollar figures, as in ElasticSweep.
func SpotSweep(spec AppSpec, sim SimParams, scaleUp float64, logf func(string, ...any)) (*Table, error) {
	d, err := newDeadlineScenario(spec, sim, scaleUp, logf)
	if err != nil {
		return nil, err
	}
	wall := d.local.TotalEmu
	frac := func(f float64) time.Duration { return time.Duration(float64(wall) * f) }
	trace := func(warnedFrac float64) *faults.RevocationTrace {
		return faults.NewRevocationTrace(spotTraceSeed, faults.RevocationSpec{
			Site:       "cloud",
			Count:      spotRevocations,
			WarnedFrac: warnedFrac,
			Warning:    frac(spotWarnFrac),
			Start:      frac(spotStartFrac),
			Spread:     frac(spotSpreadFrac),
		})
	}
	run := func(trace *faults.RevocationTrace, checkpoint int) func(*RunConfig) {
		return func(c *RunConfig) {
			c.Deploy.Elastic = d.controller()
			c.Deploy.Elastic.SpotRate = d.coreRate * spotRateFrac
			c.Deploy.Elastic.OnDemandFallback = spotODFallback
			c.Deploy.Revocations, c.Deploy.CheckpointJobs = trace, checkpoint
		}
	}
	t, err := Sweep(d.base, 0, []Variant{
		{Label: "clean", Set: run(nil, 0)},
		{Label: "warned-drain", Set: run(trace(1), 0)},
		{Label: "unwarned-kill", Set: run(trace(0), spotCheckpointJobs)},
		{Label: "unwarned-nockpt", Set: run(trace(0), 0)},
	})
	if err != nil {
		return nil, err
	}
	d.finish(t)
	return t, nil
}

// SpotColumns are the preemption sweep's metrics: the deadline
// outcome, revocation / drain / checkpoint tallies, and the tiered
// bill.
var SpotColumns = []Column{
	totalCol, deadlineCol,
	col("revs", "%d", func(r *Row) any { return r.Preemption.Revocations }),
	col("drains", "%s", func(r *Row) any {
		return fmt.Sprintf("%d/%d", r.Preemption.DrainsCompleted, r.Preemption.DrainsAborted)
	}),
	col("ckpts", "%d", func(r *Row) any { return r.Preemption.CheckpointsSent }),
	col("adopts", "%d", func(r *Row) any { return r.Preemption.CheckpointsAdopted }),
	col("saved", "%d", func(r *Row) any { return r.Preemption.JobsRecovered }),
	col("requeue", "%d", func(r *Row) any { return r.Preemption.JobsRequeued }),
	col("od-wkr", "%d", func(r *Row) any { return r.Elastic.OnDemandWorkers }),
	col("boots", "%d", func(r *Row) any { return r.Elastic.Boots }),
	col("spot $", "%.4f", func(r *Row) any { return r.Elastic.SpotUSD }),
	col("od $", "%.4f", func(r *Row) any { return r.Elastic.OnDemandUSD }),
	col("total $", "%.4f", func(r *Row) any { return r.TotalUSD }),
}
