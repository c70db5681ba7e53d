package apps

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"cloudburst/internal/gr"
	"cloudburst/internal/workload"
)

func init() {
	gr.Register("pagerank", func(params map[string]string) (gr.App, error) {
		return NewPageRank(Params(params))
	})
}

// PageRank performs one power iteration of Google's PageRank over an
// edge-list data set: each edge record (src, dst) contributes
// damping * rank[src]/outdeg(src) to next[dst]. The reduction object
// is the *entire* next-rank vector — the paper's "very large reduction
// object" (~300 MB at 50M pages) whose inter-cluster transfer
// dominates pagerank's synchronization time.
//
// The graph's out-degrees are pure functions of the page id (see
// workload.Edges), so workers need no degree table: the app only
// carries the current rank vector, which all sites derive identically
// (uniform 1/N for the first iteration, or decoded from a previous
// iteration's result).
type PageRank struct {
	// Graph describes the edge generator (pages, degree bounds, seed).
	Graph workload.Edges
	// Damping is the PageRank damping factor.
	Damping float64
	// Cost is the modeled per-unit (per-edge) compute time.
	Cost time.Duration

	ranks []float64
}

// NewPageRank builds a PageRank app from parameters pages, mindeg,
// maxdeg, gseed, damping, cost.
func NewPageRank(p Params) (*PageRank, error) {
	pages, err := p.Int64("pages", 100_000)
	if err != nil {
		return nil, err
	}
	minDeg, err := p.Int("mindeg", 8)
	if err != nil {
		return nil, err
	}
	maxDeg, err := p.Int("maxdeg", 28)
	if err != nil {
		return nil, err
	}
	gseed, err := p.Uint64("gseed", 13)
	if err != nil {
		return nil, err
	}
	damping, err := p.Float("damping", 0.85)
	if err != nil {
		return nil, err
	}
	cost, err := p.Duration("cost", 500*time.Nanosecond)
	if err != nil {
		return nil, err
	}
	if pages <= 0 || minDeg < 1 || maxDeg < minDeg {
		return nil, fmt.Errorf("apps: pagerank bad graph: pages=%d deg=[%d,%d]", pages, minDeg, maxDeg)
	}
	a := &PageRank{
		Graph:   workload.Edges{Pages: pages, MinDeg: minDeg, MaxDeg: maxDeg, Seed: gseed},
		Damping: damping,
		Cost:    cost,
	}
	a.ranks = make([]float64, pages)
	uniform := 1.0 / float64(pages)
	for i := range a.ranks {
		a.ranks[i] = uniform
	}
	return a, nil
}

// Name implements gr.App.
func (a *PageRank) Name() string { return "pagerank" }

// RecordSize implements gr.App.
func (a *PageRank) RecordSize() int { return a.Graph.RecordSize() }

// UnitCost implements gr.App.
func (a *PageRank) UnitCost() time.Duration { return a.Cost }

// Ranks returns the current (input) rank vector.
func (a *PageRank) Ranks() []float64 { return a.ranks }

// SetRanks installs the rank vector for the next iteration.
func (a *PageRank) SetRanks(r []float64) error {
	if int64(len(r)) != a.Graph.Pages {
		return fmt.Errorf("apps: pagerank rank vector length %d != pages %d", len(r), a.Graph.Pages)
	}
	a.ranks = r
	return nil
}

// NewReduction implements gr.App.
func (a *PageRank) NewReduction() gr.Reduction {
	return &pagerankRed{app: a, next: gr.NewVectorSum(int(a.Graph.Pages))}
}

// Summarize implements gr.Summarizer.
func (a *PageRank) Summarize(red gr.Reduction) (string, error) {
	r, ok := red.(*pagerankRed)
	if !ok {
		return "", fmt.Errorf("apps: pagerank cannot summarize %T", red)
	}
	next := r.NextRanks()
	var sum, max float64
	var argmax int
	for i, v := range next {
		sum += v
		if v > max {
			max, argmax = v, i
		}
	}
	return fmt.Sprintf("pagerank: %d pages, mass=%.6f, top page=%d rank=%.8f",
		len(next), sum, argmax, max), nil
}

type pagerankRed struct {
	app *PageRank
	// next accumulates damping * rank[src]/outdeg(src) per dst; the
	// teleport term is added when the vector is finalized.
	next *gr.VectorSum
}

func (r *pagerankRed) Update(unit []byte) error {
	src := int64(binary.LittleEndian.Uint32(unit[0:4]))
	dst := int64(binary.LittleEndian.Uint32(unit[4:8]))
	if src >= r.app.Graph.Pages || dst >= r.app.Graph.Pages {
		return fmt.Errorf("apps: pagerank edge %d->%d outside %d pages", src, dst, r.app.Graph.Pages)
	}
	r.next.V[dst] += r.app.Damping * r.app.ranks[src] / float64(r.app.Graph.OutDegree(src))
	return nil
}

func (r *pagerankRed) Merge(other gr.Reduction) error {
	o, ok := other.(*pagerankRed)
	if !ok {
		return fmt.Errorf("apps: pagerank merge with %T", other)
	}
	return r.next.Merge(o.next)
}

// ElementwiseMerge marks the rank-vector sum for the striped merge.
func (r *pagerankRed) ElementwiseMerge() {}

func (r *pagerankRed) Encode(w io.Writer) error  { return r.next.Encode(w) }
func (r *pagerankRed) Decode(rd io.Reader) error { return r.next.Decode(rd) }
func (r *pagerankRed) Bytes() int                { return r.next.Bytes() }

// NextRanks finalizes the iteration: accumulated link mass plus the
// uniform teleport term.
func (r *pagerankRed) NextRanks() []float64 {
	n := len(r.next.V)
	teleport := (1 - r.app.Damping) / float64(n)
	out := make([]float64, n)
	for i, v := range r.next.V {
		out[i] = teleport + v
	}
	return out
}
