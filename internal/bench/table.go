package bench

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"cloudburst/internal/advisor"
	"cloudburst/internal/driver"
	"cloudburst/internal/elastic"
	"cloudburst/internal/metrics"
)

// Every ablation in this package is one variants × metrics table: a
// base RunConfig, a list of variants that each tweak it, one Row per
// variant summing its passes, and a Match flag recording whether every
// variant computed the same result. Sweep runs the variants,
// Table.Render prints them with an experiment's columns, and the
// Check* gates (gates.go) judge them. The machinery under test is an
// optimization or a recovery path, never a semantics change, so a
// diverging digest is a bug, not a data point.

// Variant is one arm of a sweep: its label and the change it makes to
// the sweep's base configuration (nil runs the base unchanged).
type Variant struct {
	Label string
	Set   func(*RunConfig)
}

// Row is one variant's outcome, summed over its passes.
type Row struct {
	Label string
	// CloudCores is the variant's initial cloud core count.
	CloudCores int
	Iterations int
	// TotalEmu and GlobalRedEmu sum every pass's emulated wall time and
	// head-side merge + final-delivery phase.
	TotalEmu     time.Duration
	GlobalRedEmu time.Duration
	// Retrieval sums the pipeline counters over the passes; Sync is the
	// last pass's sync-phase accounting.
	Retrieval metrics.RetrievalReport
	Sync      metrics.SyncReport
	// EgressBytes is the true object-store egress: direct slave reads
	// from S3 plus the site buffer's own backing fetches. Everything the
	// buffer served beyond its backing traffic was absorbed by sharing
	// and staging.
	EgressBytes int64
	// Digest is the last pass's application result digest.
	Digest string

	// The deadline experiments (elastic, spot, advisor) also keep the
	// run's scaling and preemption reports and its paper-scale bill:
	// instance time billed per emulated second plus cross-site egress
	// projected back to paper scale.
	MetDeadline  bool                     `json:",omitempty"`
	Elastic      metrics.ElasticReport    `json:",omitzero"`
	Preemption   metrics.PreemptionReport `json:",omitzero"`
	InstanceSecs float64                  `json:",omitempty"`
	EgressGiB    float64                  `json:",omitempty"`
	InstanceUSD  float64                  `json:",omitempty"`
	EgressUSD    float64                  `json:",omitempty"`
	TotalUSD     float64                  `json:",omitempty"`
	// Plan is the advice an advisor-planned run launched under; Record
	// the history record the run appended (advisor experiment only).
	Plan   *advisor.Plan   `json:",omitempty"`
	Record *advisor.Record `json:",omitempty"`

	// Report is the last pass's full run report.
	Report *metrics.RunReport `json:"-"`
}

// add folds one pass's report into the row.
func (r *Row) add(rep *metrics.RunReport) {
	r.Iterations++
	r.TotalEmu += rep.TotalWall
	r.GlobalRedEmu += rep.GlobalRed
	r.Retrieval.Add(rep.Retrieval)
	if rep.Sync != nil {
		r.Sync = *rep.Sync
	}
	r.EgressBytes += s3EgressBytes(rep)
	if rep.Elastic != nil {
		r.Elastic = *rep.Elastic
	}
	if rep.Preemption != nil {
		r.Preemption = *rep.Preemption
	}
	r.Digest = rep.FinalResult
	r.Report = rep
}

// ramp counts the run's reactive ramp: mid-run "deadline at risk"
// scale-ups (an advisor warm start at t=0 is excluded — it replaces
// the ramp rather than being part of it) and the emulated second
// commanded capacity last grew, i.e. how long the run took to discover
// its fleet.
func (r *Row) ramp() (events int, lastSecs float64) {
	for _, ev := range r.Elastic.Events {
		if ev.To > ev.From && ev.Reason != elastic.ReasonWarmStart {
			events++
			lastSecs = max(lastSecs, ev.AtEmu.Seconds())
		}
	}
	return events, lastSecs
}

// s3EgressBytes derives one run's object-store egress from its report.
// Home reads the slaves paid directly are BytesRead minus stolen-chunk
// traffic; reads routed through the buffer swap their full size for
// the (smaller, shared) backing traffic the buffer actually fetched.
func s3EgressBytes(report *metrics.RunReport) int64 {
	var direct int64
	for _, c := range report.Clusters {
		direct += c.Workers.BytesRead - c.Workers.BytesRemote
	}
	return direct - report.Retrieval.BufferBytes + report.Retrieval.BufferBackingBytes
}

// Table is one sweep's outcome.
type Table struct {
	App        string
	Env        string
	Iterations int
	// Baseline and Deadline are the deadline experiments' measured
	// local-only wall and the run deadline derived from it.
	Baseline time.Duration `json:",omitempty"`
	Deadline time.Duration `json:",omitempty"`
	Rows     []Row
	// Match is true when every row produced the same digest.
	Match bool
}

// Row returns the row with the given label, or nil.
func (t *Table) Row(label string) *Row {
	for i := range t.Rows {
		if t.Rows[i].Label == label {
			return &t.Rows[i]
		}
	}
	return nil
}

// match verifies digest invariance and fills the Match flag.
func (t *Table) match() {
	t.Match = true
	for _, r := range t.Rows[1:] {
		if r.Digest != t.Rows[0].Digest {
			t.Match = false
		}
	}
}

// Sweep runs every variant over base and tabulates the outcomes. With
// iters == 0 each variant is one pass through Execute. With iters > 0
// each variant runs that many pagerank power iterations through the
// driver, and the variant's CacheBytes / BufferBytes become the
// driver's persistent per-site chunk cache / burst buffer, so every
// pass after the first can replay the previous pass's chunks.
func Sweep(base RunConfig, iters int, variants []Variant) (*Table, error) {
	t := &Table{App: base.Spec.withDefaults().Name, Iterations: max(iters, 1)}
	for _, v := range variants {
		cfg := base
		if v.Set != nil {
			v.Set(&cfg)
		}
		row := Row{Label: v.Label, CloudCores: cfg.CloudCores}
		if err := passes(cfg, iters, row.add); err != nil {
			return nil, fmt.Errorf("bench: %s %s %s: %w", t.App, envName(cfg), v.Label, err)
		}
		t.Env = envName(cfg)
		t.Rows = append(t.Rows, row)
	}
	t.match()
	return t, nil
}

// passes runs one configuration as Sweep describes, handing every
// pass's report to each.
func passes(cfg RunConfig, iters int, each func(*metrics.RunReport)) error {
	if iters == 0 {
		res, err := Execute(cfg)
		if err != nil {
			return err
		}
		each(res.Report)
		return nil
	}
	cache, buffer := cfg.Deploy.CacheBytes, cfg.Deploy.BufferBytes
	cfg.Deploy.CacheBytes, cfg.Deploy.BufferBytes = 0, 0
	dep, err := BuildDeploy(cfg)
	if err != nil {
		return err
	}
	it, err := driver.PageRank(dep.Deploy, -1) // fixed iteration count
	if err != nil {
		return err
	}
	it.MaxIterations, it.CacheBytes, it.BufferBytes = iters, cache, buffer
	it.OnIteration = func(_ int, _ float64, report *metrics.RunReport) { each(report) }
	_, err = it.Run()
	return err
}

// Column is one metric of a rendered table.
type Column struct {
	Head string
	Cell func(t *Table, r *Row) string
}

// col formats one value of each row.
func col(head, format string, value func(r *Row) any) Column {
	return Column{Head: head, Cell: func(_ *Table, r *Row) string { return fmt.Sprintf(format, value(r)) }}
}

// mb converts bytes to MiB.
func mb(n int64) float64 { return float64(n) / (1 << 20) }

var (
	totalCol = col("total", "%.1f", func(r *Row) any { return r.TotalEmu.Seconds() })
	// speedupCol compares each row's wall time with the first row's.
	speedupCol = Column{Head: "speedup", Cell: func(t *Table, r *Row) string {
		base := t.Rows[0].TotalEmu
		if base <= 0 || r.TotalEmu <= 0 {
			return "—"
		}
		return fmt.Sprintf("%.2fx", base.Seconds()/r.TotalEmu.Seconds())
	}}
	deadlineCol = col("deadline", "%s", func(r *Row) any {
		if r.MetDeadline {
			return "met ✓"
		}
		return "MISS ✗"
	})
)

// caption describes the table's setting after its title.
func (t *Table) caption() string {
	s := fmt.Sprintf("%s, %d iteration(s)", t.Env, t.Iterations)
	if t.Deadline > 0 {
		s += fmt.Sprintf(", deadline %.1fs = %.0f%% of local-only %.1fs",
			t.Deadline.Seconds(), 100*t.Deadline.Seconds()/t.Baseline.Seconds(), t.Baseline.Seconds())
	}
	return s + ", emulated seconds"
}

// Render prints the table under title: one line per variant with the
// given columns, each run's plan and scaling decisions where it has
// them, and the digest verdict.
func (t *Table) Render(title string, cols []Column) string {
	lines := [][]string{{"variant"}}
	for _, c := range cols {
		lines[0] = append(lines[0], c.Head)
	}
	for i := range t.Rows {
		line := []string{t.Rows[i].Label}
		for _, c := range cols {
			line = append(line, c.Cell(t, &t.Rows[i]))
		}
		lines = append(lines, line)
	}
	widths := make([]int, len(lines[0]))
	for _, line := range lines {
		for i, cell := range line {
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", title, t.caption())
	for _, line := range lines {
		b.WriteString(" ")
		for i, cell := range line {
			pad := strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell))
			if i == 0 {
				b.WriteString(" " + cell + pad)
			} else {
				b.WriteString("  " + pad + cell)
			}
		}
		b.WriteString("\n")
	}
	for _, r := range t.Rows {
		if r.Plan != nil {
			fmt.Fprintf(&b, "  %s plan: %s\n", r.Label, strings.ReplaceAll(r.Plan.String(), "\n", "\n  "))
		}
	}
	for _, r := range t.Rows {
		if len(r.Elastic.Events) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s decisions:", r.Label)
		for _, ev := range r.Elastic.Events {
			fmt.Fprintf(&b, " [%.1fs %d→%d %s]", ev.AtEmu.Seconds(), ev.From, ev.To, ev.Reason)
		}
		b.WriteString("\n")
	}
	if t.Match {
		b.WriteString("  results match: identical digests across all variants ✓\n")
	} else {
		b.WriteString("  results differ across variants:\n")
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "    %-*s %s\n", widths[0]+1, r.Label+":", r.Digest)
		}
	}
	return b.String()
}
