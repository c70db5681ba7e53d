package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cloudburst/internal/cluster"
	"cloudburst/internal/metrics"
)

// The sync experiment measures the global-reduction synchronization
// strategies over the paper's worst case for them: pagerank in
// env-cloud, where every core ships a full ~600 KB rank vector to the
// master and the merged vector crosses the 15 KB/s head WAN. Two
// variants run the identical workload: the monolithic baseline
// (single-frame objects, serial merge after the all-arrivals barrier)
// and the streamed default (bounded part frames, a parallel merge tree
// overlapped with transfers). Sync is a transport/scheduling change,
// never a semantics change, so both variants must produce the same
// result digest; the win is measured wall clock plus the overlap the
// per-arrival merge bought.

// SyncVariant names one arm of the sync ablation.
type SyncVariant struct {
	Label string
	Mode  string // cluster.DeployConfig.SyncMode value
}

// SyncVariants returns the ablation arms in rendering order, the
// monolithic baseline first.
func SyncVariants() []SyncVariant {
	return []SyncVariant{
		{Label: "monolithic-serial", Mode: cluster.SyncMonolithic},
		{Label: "streamed-parallel", Mode: cluster.SyncStreamedParallel},
	}
}

// syncMergeCostPerByte restores the paper-scale merge CPU the byte
// scale-down erased: folding the paper's ~300 MB rank vector at real
// memory bandwidth costs ~0.6 s per pair merge, and our ~600 KB
// stand-in object is 10,000x smaller, so each folded byte is charged
// 1 µs of emulated time (0.6 s / 600 KB). Every variant pays it —
// what differs is whether the folds hide behind transfers and run
// concurrently (streamed) or queue after the barrier (monolithic).
const syncMergeCostPerByte = time.Microsecond

// syncSpec turns the calibrated pagerank workload into its large-rank-
// vector variant: 4x the pages at a quarter the degree, so the edge
// data (and thus the map phase) stays at the calibrated size while the
// reduction object the sync phase must move and merge quadruples.
func syncSpec(spec AppSpec) AppSpec {
	out := spec
	out.Params = make(map[string]string, len(spec.Params))
	for k, v := range spec.Params {
		out.Params[k] = v
	}
	for key, mul := range map[string]bool{"pages": true, "mindeg": false, "maxdeg": false} {
		n, err := strconv.ParseInt(out.Params[key], 10, 64)
		if err != nil {
			continue
		}
		if mul {
			n *= 4
		} else {
			n /= 4
		}
		if n < 1 {
			n = 1
		}
		out.Params[key] = strconv.FormatInt(n, 10)
	}
	return out
}

// SyncRow is one variant's outcome.
type SyncRow struct {
	Label string
	Mode  string
	// TotalEmu is the run's emulated wall time; GlobalRedEmu the
	// head-side merge + final-broadcast phase.
	TotalEmu     time.Duration
	GlobalRedEmu time.Duration
	// Sync is the run's sync-phase accounting (parts, bytes, merges,
	// overlap) summed over every tier.
	Sync metrics.SyncReport
	// Digest is the application result digest.
	Digest string
}

// Seconds is TotalEmu in emulated seconds (for JSON consumers).
func (r SyncRow) Seconds() float64 { return r.TotalEmu.Seconds() }

// SyncResult is the full ablation.
type SyncResult struct {
	App  string
	Env  string
	Rows []SyncRow
	// Match is true when every variant produced the same digest.
	Match bool
}

// Row returns the named row, or nil.
func (s *SyncResult) Row(label string) *SyncRow {
	for i := range s.Rows {
		if s.Rows[i].Label == label {
			return &s.Rows[i]
		}
	}
	return nil
}

// finish verifies digest invariance and fills the Match flag.
func (s *SyncResult) finish() {
	s.Match = true
	for _, r := range s.Rows[1:] {
		if r.Digest != s.Rows[0].Digest {
			s.Match = false
		}
	}
}

// SyncPageRank runs the ablation: one pagerank pass per variant, all
// data in S3, cloud cores only (the reduction-object transfers and
// merges dominated by the large rank vector).
func SyncPageRank(spec AppSpec, sim SimParams, logf func(string, ...any)) (*SyncResult, error) {
	spec = syncSpec(spec.withDefaults())
	out := &SyncResult{App: spec.Name}
	for _, v := range SyncVariants() {
		res, err := Execute(RunConfig{
			Spec: spec, LocalPct: 0,
			LocalCores: 0, CloudCores: spec.CloudCores(32),
			Sim: sim, SyncMode: v.Mode,
			MergeCost: syncMergeCostPerByte, Logf: logf,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: sync %s %s: %w", spec.Name, v.Label, err)
		}
		out.Env = res.Env
		row := SyncRow{
			Label: v.Label, Mode: v.Mode,
			TotalEmu:     res.Report.TotalWall,
			GlobalRedEmu: res.Report.GlobalRed,
			Digest:       res.Report.FinalResult,
		}
		if res.Report.Sync != nil {
			row.Sync = *res.Report.Sync
		}
		out.Rows = append(out.Rows, row)
	}
	out.finish()
	return out, nil
}

// RenderSync prints the ablation with each variant's speedup over the
// monolithic baseline and its merge-overlap accounting.
func RenderSync(title string, res *SyncResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Global-reduction sync — %s (%s, emulated seconds)\n", title, res.Env)
	fmt.Fprintf(&b, "%-18s %10s %9s %9s %7s %9s %9s %8s %8s %8s %7s\n",
		"variant", "total", "speedup", "globred", "parts", "streamMB", "estMB", "merges", "busy", "saved", "maxpar")
	base := res.Rows[0]
	for _, r := range res.Rows {
		speed := "—"
		if base.TotalEmu > 0 && r.TotalEmu > 0 {
			speed = fmt.Sprintf("%.2fx", base.TotalEmu.Seconds()/r.TotalEmu.Seconds())
		}
		fmt.Fprintf(&b, "%-18s %10.1f %9s %9.1f %7d %9.2f %9.2f %8d %8.1f %8.1f %7d\n",
			r.Label, r.TotalEmu.Seconds(), speed, r.GlobalRedEmu.Seconds(),
			r.Sync.Parts,
			float64(r.Sync.StreamedBytes)/(1<<20),
			float64(r.Sync.EstBytes)/(1<<20),
			r.Sync.Merges,
			r.Sync.MergeBusyEmu.Seconds(),
			r.Sync.OverlapSavedEmu.Seconds(),
			r.Sync.MaxParallel)
	}
	if res.Match {
		fmt.Fprintf(&b, "result digests: identical across all variants ✓\n")
	} else {
		fmt.Fprintf(&b, "result digests: DIVERGED — the sync strategy changed results\n")
		for _, r := range res.Rows {
			fmt.Fprintf(&b, "  %-18s %s\n", r.Label+":", r.Digest)
		}
	}
	return b.String()
}
