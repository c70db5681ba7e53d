// Package gr implements the paper's core contribution: the
// generalized reduction API (Section III-A), a FREERIDE-style
// alternative to Map-Reduce that folds map, combine, and reduce into a
// single in-place update of a reduction object.
//
// An application supplies a Reduction (the reduction object plus its
// local-reduction update and global-reduction merge) and a record
// size. The engine processes each chunk's data units in cache-sized
// groups, calling Update (the paper's proc(e)) per unit; when all data
// is processed, reduction objects from every worker, node, and cluster
// are folded together with Merge in a global reduction.
//
// The API contract mirrors the paper: the result of local reduction
// must be independent of the order in which data units are processed
// on each processor, because the runtime chooses the order.
package gr

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"cloudburst/internal/metrics"
	"cloudburst/internal/netsim"
)

// Reduction is a reduction object: user-designed state updated in
// place by local reduction and folded by global reduction. A Reduction
// need not be safe for concurrent use; each worker owns a private copy
// (memory allocation is managed by the middleware).
type Reduction interface {
	// Update performs local reduction of one data unit ("proc(e)"):
	// process the element and fold it into the object immediately.
	Update(unit []byte) error
	// Merge performs global reduction, folding other (an object of
	// the same concrete type) into the receiver.
	Merge(other Reduction) error
	// Encode serializes the object for inter-cluster transfer.
	Encode(w io.Writer) error
	// Decode replaces the object's state from Encode's output. It may
	// decode into the storage the receiver already holds (what
	// NewReduction allocated) but must then overwrite all of it, and
	// it allocates only as bytes are read, never from a length or
	// count header alone: objects arrive from peers and checkpoints.
	Decode(r io.Reader) error
	// Bytes estimates the object's in-memory size; the harness uses
	// it to report reduction-object transfer volumes (the paper's
	// pagerank object is ~300 MB and dominates sync time).
	Bytes() int
}

// App couples a data set's record format with its reduction and the
// compute intensity the pacer models.
type App interface {
	// Name identifies the application ("knn", "kmeans", ...).
	Name() string
	// RecordSize is the fixed byte length of one data unit.
	RecordSize() int
	// NewReduction allocates a fresh reduction object.
	NewReduction() Reduction
	// UnitCost is the emulated compute time one core spends per data
	// unit (how the paper's "low computation" knn vs. "heavy
	// computation" kmeans distinction is expressed).
	UnitCost() time.Duration
}

// BlockReducer is an optional fast path under the per-element API: a
// Reduction that also implements it is handed each paced unit group
// whole — a whole number of records, in chunk order — instead of one
// Update call per unit. The result must be exactly what calling Update
// on every record of units in order would have produced.
type BlockReducer interface {
	UpdateBlock(units []byte) error
}

// Summarizer is implemented by applications that can render a final
// reduction object as a short human-readable result digest.
type Summarizer interface {
	Summarize(red Reduction) (string, error)
}

// Engine runs local reduction over chunk data. One Engine serves one
// worker (virtual core); it is not safe for concurrent use.
type Engine struct {
	app App
	// groupUnits is how many units are reduced per paced group — the
	// paper's cache-sized unit group.
	groupUnits int
	pacer      *netsim.Pacer
	stats      *metrics.Breakdown
}

// EngineOptions configure an Engine.
type EngineOptions struct {
	// GroupUnits is the units per processing group (cache sizing).
	// Values below 1 default to 4096.
	GroupUnits int
	// Clock paces compute; nil disables pacing.
	Clock netsim.Clock
	// Stats receives processing-time accounting; nil discards it.
	Stats *metrics.Breakdown
	// UnitCostScale multiplies the app's per-unit cost, modelling
	// cores slower or faster than the reference (e.g. EC2 compute
	// units vs. the local cluster's Xeons). Zero means 1.
	UnitCostScale float64
}

// NewEngine builds an engine for app.
func NewEngine(app App, opts EngineOptions) *Engine {
	if opts.GroupUnits < 1 {
		opts.GroupUnits = 4096
	}
	stats := opts.Stats
	if stats == nil {
		stats = &metrics.Breakdown{}
	}
	cost := app.UnitCost()
	if opts.UnitCostScale > 0 {
		cost = time.Duration(float64(cost) * opts.UnitCostScale)
	}
	return &Engine{
		app:        app,
		groupUnits: opts.GroupUnits,
		pacer:      netsim.NewPacer(opts.Clock, cost),
		stats:      stats,
	}
}

// App returns the engine's application.
func (e *Engine) App() App { return e.app }

// ProcessChunk locally reduces every data unit in data into red,
// working in cache-sized unit groups, and returns the number of units
// processed. data's length must be a multiple of the record size. A
// red that implements BlockReducer takes each group in one call.
func (e *Engine) ProcessChunk(red Reduction, data []byte) (int, error) {
	rs := e.app.RecordSize()
	if rs <= 0 {
		return 0, fmt.Errorf("gr: app %s has non-positive record size", e.app.Name())
	}
	if len(data)%rs != 0 {
		return 0, fmt.Errorf("gr: chunk of %d bytes not a multiple of record size %d", len(data), rs)
	}
	units := len(data) / rs
	group := e.groupUnits * rs
	block, _ := red.(BlockReducer)
	for off := 0; off < len(data); off += group {
		end := off + group
		if end > len(data) {
			end = len(data)
		}
		start := e.pacer.Begin()
		var err error
		if block != nil {
			err = block.UpdateBlock(data[off:end])
		} else {
			err = updateUnits(red, data[off:end], rs)
		}
		if err != nil {
			return 0, fmt.Errorf("gr: local reduction: %w", err)
		}
		e.stats.AddProcessing(e.pacer.End(start, (end-off)/rs))
	}
	return units, nil
}

// updateUnits is the paper's per-element loop over one unit group.
func updateUnits(red Reduction, units []byte, rs int) error {
	for u := 0; u < len(units); u += rs {
		if err := red.Update(units[u : u+rs]); err != nil {
			return err
		}
	}
	return nil
}

// BufferSource provides recycled byte buffers for encoding. It is the
// same shape as wire.BufferSource, restated here so gr does not depend
// on the wire layer; *store.BufferPool satisfies both.
type BufferSource interface {
	Get(n int64) []byte
	Put(buf []byte)
}

// poolWriter is an io.Writer that accumulates into a pooled buffer,
// growing by doubling through the pool's size classes so the full
// object is encoded with at most O(log n) buffer swaps and zero
// garbage on the steady state.
type poolWriter struct {
	pool BufferSource
	buf  []byte
	n    int
}

func newPoolWriter(pool BufferSource, sizeHint int) *poolWriter {
	if sizeHint < 512 {
		sizeHint = 512
	}
	w := &poolWriter{pool: pool}
	if pool != nil {
		w.buf = pool.Get(int64(sizeHint))
	} else {
		w.buf = make([]byte, sizeHint)
	}
	return w
}

func (w *poolWriter) Write(p []byte) (int, error) {
	if need := w.n + len(p); need > len(w.buf) {
		size := len(w.buf) * 2
		for size < need {
			size *= 2
		}
		var grown []byte
		if w.pool != nil {
			grown = w.pool.Get(int64(size))
		} else {
			grown = make([]byte, size)
		}
		copy(grown, w.buf[:w.n])
		if w.pool != nil {
			w.pool.Put(w.buf)
		}
		w.buf = grown
	}
	copy(w.buf[w.n:], p)
	w.n += len(p)
	return len(p), nil
}

// EncodeReduction serializes red to bytes for transfer. The returned
// slice is freshly owned by the caller.
func EncodeReduction(red Reduction) ([]byte, error) {
	data, _, err := EncodeReductionTo(red, nil)
	return data, err
}

// EncodeReductionTo serializes red into a buffer drawn from pool
// (sized from red.Bytes(), grown by doubling when the estimate runs
// short). release hands the backing buffer to the pool; the caller
// must not touch data afterwards. A nil pool allocates and release is
// a no-op.
func EncodeReductionTo(red Reduction, pool BufferSource) (data []byte, release func(), err error) {
	w := newPoolWriter(pool, red.Bytes()+64)
	if err := red.Encode(w); err != nil {
		if pool != nil {
			pool.Put(w.buf)
		}
		return nil, nil, err
	}
	release = func() {}
	if pool != nil {
		buf := w.buf
		release = func() { pool.Put(buf) }
	}
	return w.buf[:w.n], release, nil
}

// DecodeReduction materializes a fresh reduction object for app from
// encoded bytes.
func DecodeReduction(app App, data []byte) (Reduction, error) {
	return DecodeReductionFrom(app, bytes.NewReader(data))
}

// DecodeReductionFrom materializes a fresh reduction object for app
// from an encoded stream, decoding into the storage NewReduction
// allocates — the receiving half of streamed object
// transfer, where r is bridged from arriving wire parts and decoding
// overlaps the transfer itself.
func DecodeReductionFrom(app App, r io.Reader) (Reduction, error) {
	red := app.NewReduction()
	if err := red.Decode(r); err != nil {
		return nil, err
	}
	return red, nil
}

// MergeAll folds every object in objs into a single fresh reduction
// object for app — the head node's global reduction.
func MergeAll(app App, objs []Reduction) (Reduction, error) {
	final := app.NewReduction()
	for _, o := range objs {
		if o == nil {
			continue
		}
		if err := final.Merge(o); err != nil {
			return nil, fmt.Errorf("gr: global reduction: %w", err)
		}
	}
	return final, nil
}
