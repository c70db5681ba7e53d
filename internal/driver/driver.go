// Package driver runs iterative algorithms on top of the single-pass
// cloud-bursting runtime: each iteration is one complete deployment
// (local reduction everywhere, global reduction at the head), and the
// globally reduced object feeds the next iteration's application
// state. This is how multi-pass analyses (Lloyd's k-means, PageRank
// power iterations) compose with the paper's middleware.
package driver

import (
	"fmt"

	"cloudburst/internal/apps"
	"cloudburst/internal/cluster"
	"cloudburst/internal/gr"
	"cloudburst/internal/metrics"
	"cloudburst/internal/store"
)

// StepFunc consumes one iteration's final reduction object, installs
// whatever the next iteration needs into the application, and reports
// whether the algorithm has converged. delta is a caller-defined
// progress measure recorded per iteration.
type StepFunc func(final gr.Reduction) (delta float64, done bool, err error)

// Iterative drives repeated deployments until a StepFunc declares
// convergence or MaxIterations is reached.
type Iterative struct {
	// Deploy is the per-iteration deployment; its App must carry any
	// cross-iteration state (centroids, rank vectors).
	Deploy cluster.DeployConfig
	// Step processes each iteration's result.
	Step StepFunc
	// MaxIterations bounds the run (default 50).
	MaxIterations int
	// CacheBytes, when positive, installs a persistent per-site chunk
	// cache of that many bytes before the first iteration, so every
	// pass after the first reads warm chunks instead of re-paying
	// object-store/WAN retrieval. Sites that already carry a cache are
	// left alone.
	CacheBytes int64
	// BufferBytes, when positive, installs a persistent burst buffer of
	// that capacity on every HomeFetch site before the first iteration
	// (sites already carrying one are left alone), so chunks staged or
	// faulted in during iteration N serve iteration N+1 from the site
	// tier instead of the backing store. All buffers are drained when
	// the iteration loop finishes.
	BufferBytes int64
	// OnIteration, if set, observes each iteration's report.
	OnIteration func(iter int, delta float64, report *metrics.RunReport)
}

// Result summarizes an iterative run.
type Result struct {
	Iterations int
	Converged  bool
	// Deltas holds each iteration's progress measure.
	Deltas []float64
	// Final is the last iteration's reduction object.
	Final gr.Reduction
}

// Run executes the iteration loop.
func (it *Iterative) Run() (*Result, error) {
	if it.Step == nil {
		return nil, fmt.Errorf("driver: Step is required")
	}
	maxIter := it.MaxIterations
	if maxIter <= 0 {
		maxIter = 50
	}
	if it.CacheBytes > 0 {
		for i := range it.Deploy.Sites {
			if it.Deploy.Sites[i].Cache == nil {
				it.Deploy.Sites[i].Cache = store.NewChunkCache(it.CacheBytes, store.NewBufferPool())
			}
		}
	}
	if it.BufferBytes > 0 {
		for i := range it.Deploy.Sites {
			site := &it.Deploy.Sites[i]
			if !site.HomeFetch || site.Buffer != nil {
				continue
			}
			fetch := it.Deploy.Fetch.WithDefaultSizes()
			fetch.Clock = it.Deploy.Clock
			pool := site.Cache.Pool()
			site.Buffer = store.NewSiteBuffer(store.SiteBufferConfig{
				Site: site.Name, Backing: site.HomeStore, Capacity: it.BufferBytes,
				Fetch: fetch, Pool: pool, Autotune: it.Deploy.FetchAutotune,
			})
			defer site.Buffer.Drain()
		}
	}
	res := &Result{}
	for iter := 1; iter <= maxIter; iter++ {
		out, err := cluster.Run(it.Deploy)
		if err != nil {
			return nil, fmt.Errorf("driver: iteration %d: %w", iter, err)
		}
		delta, done, err := it.Step(out.Final)
		if err != nil {
			return nil, fmt.Errorf("driver: iteration %d step: %w", iter, err)
		}
		res.Iterations = iter
		res.Deltas = append(res.Deltas, delta)
		res.Final = out.Final
		if it.OnIteration != nil {
			it.OnIteration(iter, delta, out.Report)
		}
		if done {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

// KMeans builds an Iterative driving Lloyd's algorithm to convergence:
// each iteration reassigns every point and moves the centroids;
// convergence is the largest squared centroid movement dropping below
// tolerance.
func KMeans(deploy cluster.DeployConfig, tolerance float64) (*Iterative, error) {
	app, ok := deploy.App.(*apps.KMeans)
	if !ok {
		return nil, fmt.Errorf("driver: KMeans needs a kmeans app, got %T", deploy.App)
	}
	return &Iterative{
		Deploy: deploy,
		Step: func(final gr.Reduction) (float64, bool, error) {
			move, err := app.Iterate(final)
			if err != nil {
				return 0, false, err
			}
			return move, move < tolerance, nil
		},
	}, nil
}

// PageRank builds an Iterative driving power iterations to
// convergence: the globally reduced rank vector becomes the next
// iteration's input; convergence is the L1 rank change dropping below
// tolerance.
func PageRank(deploy cluster.DeployConfig, tolerance float64) (*Iterative, error) {
	app, ok := deploy.App.(*apps.PageRank)
	if !ok {
		return nil, fmt.Errorf("driver: PageRank needs a pagerank app, got %T", deploy.App)
	}
	type ranker interface{ NextRanks() []float64 }
	return &Iterative{
		Deploy: deploy,
		Step: func(final gr.Reduction) (float64, bool, error) {
			r, ok := final.(ranker)
			if !ok {
				return 0, false, fmt.Errorf("driver: unexpected reduction %T", final)
			}
			next := r.NextRanks()
			prev := app.Ranks()
			var delta float64
			for i := range next {
				d := next[i] - prev[i]
				if d < 0 {
					d = -d
				}
				delta += d
			}
			if err := app.SetRanks(next); err != nil {
				return 0, false, err
			}
			return delta, delta < tolerance, nil
		},
	}, nil
}
