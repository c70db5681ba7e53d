package apps

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"cloudburst/internal/gr"
)

func init() {
	gr.Register("kmeans", func(params map[string]string) (gr.App, error) {
		return NewKMeans(Params(params))
	})
}

// KMeans is one iteration of Lloyd's k-means: assign every point to
// its nearest centroid and accumulate per-centroid sums and counts.
// Records are [dims x float32]; the reduction object holds k
// accumulators — small, so global reduction is cheap. kmeans is the
// paper's compute-heavy application: every unit costs k distance
// evaluations.
type KMeans struct {
	// K is the cluster count (the paper uses 1000).
	K int
	// Dims is the point dimensionality.
	Dims int
	// CentroidSeed derives the deterministic initial centroids.
	CentroidSeed uint64
	// Cost is the modeled per-unit compute time.
	Cost time.Duration

	centroids [][]float32
}

// NewKMeans builds a KMeans app from parameters k, dims, cseed, cost.
func NewKMeans(p Params) (*KMeans, error) {
	k, err := p.Int("k", 64)
	if err != nil {
		return nil, err
	}
	dims, err := p.Int("dims", 4)
	if err != nil {
		return nil, err
	}
	seed, err := p.Uint64("cseed", 7)
	if err != nil {
		return nil, err
	}
	cost, err := p.Duration("cost", 6*time.Microsecond)
	if err != nil {
		return nil, err
	}
	if k <= 0 || dims <= 0 {
		return nil, fmt.Errorf("apps: kmeans needs positive k and dims, got k=%d dims=%d", k, dims)
	}
	a := &KMeans{K: k, Dims: dims, CentroidSeed: seed, Cost: cost}
	a.centroids = make([][]float32, k)
	x := seed
	for c := range a.centroids {
		a.centroids[c] = make([]float32, dims)
		for d := range a.centroids[c] {
			x = x*6364136223846793005 + 1442695040888963407
			a.centroids[c][d] = float32(x>>40) / float32(1<<24)
		}
	}
	return a, nil
}

// Name implements gr.App.
func (a *KMeans) Name() string { return "kmeans" }

// RecordSize implements gr.App.
func (a *KMeans) RecordSize() int { return 4 * a.Dims }

// UnitCost implements gr.App.
func (a *KMeans) UnitCost() time.Duration { return a.Cost }

// Centroids returns the current centroids.
func (a *KMeans) Centroids() [][]float32 { return a.centroids }

// SetCentroids installs centroids for the next Lloyd iteration.
func (a *KMeans) SetCentroids(c [][]float64) error {
	if len(c) != a.K {
		return fmt.Errorf("apps: kmeans set %d centroids, want %d", len(c), a.K)
	}
	next := make([][]float32, a.K)
	for i, v := range c {
		if len(v) != a.Dims {
			return fmt.Errorf("apps: kmeans centroid %d has %d dims, want %d", i, len(v), a.Dims)
		}
		next[i] = make([]float32, a.Dims)
		for d, x := range v {
			next[i][d] = float32(x)
		}
	}
	a.centroids = next
	return nil
}

// Iterate runs red's accumulated statistics into a new centroid set on
// the app (one Lloyd step) and reports the largest centroid movement.
func (a *KMeans) Iterate(red gr.Reduction) (float64, error) {
	r, ok := red.(*kmeansRed)
	if !ok {
		return 0, fmt.Errorf("apps: kmeans cannot iterate %T", red)
	}
	means := r.Means()
	var maxMove float64
	for c := range means {
		var dist float64
		for d := range means[c] {
			diff := means[c][d] - float64(a.centroids[c][d])
			dist += diff * diff
		}
		if dist > maxMove {
			maxMove = dist
		}
	}
	if err := a.SetCentroids(means); err != nil {
		return 0, err
	}
	return maxMove, nil
}

// NewReduction implements gr.App.
func (a *KMeans) NewReduction() gr.Reduction {
	return &kmeansRed{
		app:  a,
		sums: gr.NewVectorSum(a.K * a.Dims),
		n:    make([]int64, a.K),
	}
}

// Assign returns the nearest centroid index for the point in rec.
func (a *KMeans) Assign(rec []byte) int {
	best, bestDist := 0, math.Inf(1)
	for c := 0; c < a.K; c++ {
		var sum float64
		cen := a.centroids[c]
		for d := 0; d < a.Dims; d++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(rec[4*d:]))
			diff := float64(v - cen[d])
			sum += diff * diff
		}
		if sum < bestDist {
			best, bestDist = c, sum
		}
	}
	return best
}

// Summarize implements gr.Summarizer.
func (a *KMeans) Summarize(red gr.Reduction) (string, error) {
	r, ok := red.(*kmeansRed)
	if !ok {
		return "", fmt.Errorf("apps: kmeans cannot summarize %T", red)
	}
	nonEmpty := 0
	var total int64
	for _, n := range r.n {
		if n > 0 {
			nonEmpty++
		}
		total += n
	}
	return fmt.Sprintf("kmeans: %d points over %d/%d non-empty clusters", total, nonEmpty, a.K), nil
}

type kmeansRed struct {
	app  *KMeans
	sums *gr.VectorSum // k*dims coordinate sums
	n    []int64       // k point counts
}

func (r *kmeansRed) Update(unit []byte) error {
	c := r.app.Assign(unit)
	base := c * r.app.Dims
	for d := 0; d < r.app.Dims; d++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(unit[4*d:]))
		r.sums.V[base+d] += float64(v)
	}
	r.n[c]++
	return nil
}

func (r *kmeansRed) Merge(other gr.Reduction) error {
	o, ok := other.(*kmeansRed)
	if !ok {
		return fmt.Errorf("apps: kmeans merge with %T", other)
	}
	if err := r.sums.Merge(o.sums); err != nil {
		return err
	}
	if len(r.n) != len(o.n) {
		return fmt.Errorf("apps: kmeans merge k mismatch: %d vs %d", len(r.n), len(o.n))
	}
	for i, v := range o.n {
		r.n[i] += v
	}
	return nil
}

// ElementwiseMerge marks the sums-and-counts fold for the striped
// merge.
func (r *kmeansRed) ElementwiseMerge() {}

func (r *kmeansRed) Encode(w io.Writer) error {
	if err := r.sums.Encode(w); err != nil {
		return err
	}
	return gr.EncodeInt64s(w, r.n)
}

func (r *kmeansRed) Decode(rd io.Reader) error {
	if err := r.sums.Decode(rd); err != nil {
		return err
	}
	var err error
	r.n, err = gr.DecodeInt64s(rd, r.n)
	return err
}

func (r *kmeansRed) Bytes() int { return r.sums.Bytes() + 8*len(r.n) }

// Means returns the post-iteration centroids (empty clusters keep
// their previous centroid).
func (r *kmeansRed) Means() [][]float64 {
	out := make([][]float64, r.app.K)
	for c := range out {
		out[c] = make([]float64, r.app.Dims)
		base := c * r.app.Dims
		for d := 0; d < r.app.Dims; d++ {
			if r.n[c] > 0 {
				out[c][d] = r.sums.V[base+d] / float64(r.n[c])
			} else {
				out[c][d] = float64(r.app.centroids[c][d])
			}
		}
	}
	return out
}

// Counts returns per-cluster point counts.
func (r *kmeansRed) Counts() []int64 { return append([]int64(nil), r.n...) }
