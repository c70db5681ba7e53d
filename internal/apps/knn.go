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
	gr.Register("knn", func(params map[string]string) (gr.App, error) {
		return NewKNN(Params(params))
	})
}

// KNN is the k-nearest-neighbors search application: find the k points
// of the data set closest to a fixed query point. Records are
// [id uint64][dims x float32]; the reduction object is a bounded heap
// of the k best (id, distance) pairs — small, so global reduction is
// cheap (the paper's knn has a "small reduction object").
type KNN struct {
	// K is the neighbor count (the paper uses 1000).
	K int
	// Dims is the point dimensionality.
	Dims int
	// QuerySeed derives the deterministic query point.
	QuerySeed uint64
	// Cost is the modeled per-unit compute time (knn is the paper's
	// low-computation application).
	Cost time.Duration

	query []float32
}

// NewKNN builds a KNN app from parameters k, dims, qseed, cost.
func NewKNN(p Params) (*KNN, error) {
	k, err := p.Int("k", 1000)
	if err != nil {
		return nil, err
	}
	dims, err := p.Int("dims", 3)
	if err != nil {
		return nil, err
	}
	seed, err := p.Uint64("qseed", 42)
	if err != nil {
		return nil, err
	}
	cost, err := p.Duration("cost", 300*time.Nanosecond)
	if err != nil {
		return nil, err
	}
	if k <= 0 || dims <= 0 {
		return nil, fmt.Errorf("apps: knn needs positive k and dims, got k=%d dims=%d", k, dims)
	}
	a := &KNN{K: k, Dims: dims, QuerySeed: seed, Cost: cost}
	a.query = make([]float32, dims)
	x := seed
	for d := range a.query {
		x = x*6364136223846793005 + 1442695040888963407
		a.query[d] = float32(x>>40) / float32(1<<24)
	}
	return a, nil
}

// Name implements gr.App.
func (a *KNN) Name() string { return "knn" }

// RecordSize implements gr.App.
func (a *KNN) RecordSize() int { return 8 + 4*a.Dims }

// UnitCost implements gr.App.
func (a *KNN) UnitCost() time.Duration { return a.Cost }

// Query returns the query point.
func (a *KNN) Query() []float32 { return a.query }

// NewReduction implements gr.App.
func (a *KNN) NewReduction() gr.Reduction {
	return &knnRed{app: a, top: gr.NewTopK(a.K)}
}

// Distance computes the squared euclidean distance from the query to
// the point encoded in rec (exported for reference computations).
func (a *KNN) Distance(rec []byte) float64 {
	return sqDist(a.query, rec, 8)
}

// sqDist is the one distance loop, over the coordinates at b[off:]:
// float32 subtract, float64 square-accumulate, in dimension order.
func sqDist(query []float32, b []byte, off int) float64 {
	var sum float64
	for _, q := range query {
		v := math.Float32frombits(binary.LittleEndian.Uint32(b[off : off+4]))
		diff := float64(v - q)
		sum += diff * diff
		off += 4
	}
	return sum
}

// Summarize implements gr.Summarizer.
func (a *KNN) Summarize(red gr.Reduction) (string, error) {
	r, ok := red.(*knnRed)
	if !ok {
		return "", fmt.Errorf("apps: knn cannot summarize %T", red)
	}
	best := r.top.Sorted()
	if len(best) == 0 {
		return "knn: no neighbors", nil
	}
	return fmt.Sprintf("knn: %d neighbors, best id=%d dist=%.6f, worst dist=%.6f",
		len(best), best[0].ID, best[0].Score, best[len(best)-1].Score), nil
}

type knnRed struct {
	app *KNN
	top *gr.TopK
}

// Update folds one record: a one-record block.
func (r *knnRed) Update(unit []byte) error {
	return r.UpdateBlock(unit[:r.app.RecordSize()])
}

// UpdateBlock implements gr.BlockReducer: one loop over the group's
// records. Once the heap is full nearly every record loses to the
// current worst neighbour, so that score is kept in a local and the
// heap is only touched by a record that beats it — with the same >=
// as TopK.Consider, which stays the authority on what is kept.
func (r *knnRed) UpdateBlock(units []byte) error {
	top, query := r.top, r.app.query
	rs := r.app.RecordSize()
	worst, full := top.Worst()
	// Offsets into the whole group, not a sub-slice per record: slicing
	// costs more than the arithmetic it would bound.
	for off, last := 0, len(units)-rs; off <= last; off += rs {
		score := sqDist(query, units, off+8)
		if full && score >= worst {
			continue
		}
		top.Consider(gr.Scored{ID: int64(binary.LittleEndian.Uint64(units[off:])), Score: score})
		worst, full = top.Worst()
	}
	return nil
}

func (r *knnRed) Merge(other gr.Reduction) error {
	o, ok := other.(*knnRed)
	if !ok {
		return fmt.Errorf("apps: knn merge with %T", other)
	}
	return r.top.Merge(o.top)
}

func (r *knnRed) Encode(w io.Writer) error  { return r.top.Encode(w) }
func (r *knnRed) Decode(rd io.Reader) error { return r.top.Decode(rd) }
func (r *knnRed) Bytes() int                { return r.top.Bytes() }

// Neighbors exposes the current best set, ordered best-first.
func (r *knnRed) Neighbors() []gr.Scored { return r.top.Sorted() }
