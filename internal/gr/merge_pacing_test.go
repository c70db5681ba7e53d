package gr

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// vecApp's reduction is an Elementwise vector sum of n float64s.
type vecApp struct{ n int }

func (vecApp) Name() string              { return "vec" }
func (vecApp) RecordSize() int           { return 8 }
func (vecApp) UnitCost() time.Duration   { return 0 }
func (a vecApp) NewReduction() Reduction { return &vecRed{v: make([]float64, a.n)} }

// filled returns a vecApp object with every element set to x.
func (a vecApp) filled(x float64) *vecRed {
	r := &vecRed{v: make([]float64, a.n)}
	for i := range r.v {
		r.v[i] = x
	}
	return r
}

type vecRed struct {
	v []float64
	// reading counts folds that are reading this object right now.
	reading atomic.Int32
}

func (r *vecRed) ElementwiseMerge()      {}
func (r *vecRed) Update([]byte) error    { return nil }
func (r *vecRed) Encode(io.Writer) error { return nil }
func (r *vecRed) Decode(io.Reader) error { return nil }
func (r *vecRed) Bytes() int             { return 8 * len(r.v) }

func (r *vecRed) Merge(other Reduction) error {
	o, ok := other.(*vecRed)
	if !ok || len(o.v) != len(r.v) {
		return fmt.Errorf("vec merge with %T", other)
	}
	o.reading.Add(1)
	defer o.reading.Add(-1)
	for i, x := range o.v {
		r.v[i] += x
	}
	return nil
}

// recClock is a netsim.Clock whose wall time moves only when the test
// advances it or something sleeps on it; it records every sleep.
type recClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newRecClock() *recClock { return &recClock{now: time.Unix(1000, 0)} }

func (c *recClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *recClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func (c *recClock) ToWall(d time.Duration) time.Duration { return d }
func (c *recClock) ToEmu(d time.Duration) time.Duration  { return d }

func (c *recClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// took returns the sleeps since the last call.
func (c *recClock) took() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sleeps
	c.sleeps = nil
	return s
}

// TestMergerStripedPacing pins the striped accumulator's cost model on
// a recording clock: every fold of an Elementwise object costs
// Bytes×cost/W, the folds queue on one deadline, and Finish and Fold
// sleep to it once. Busy still counts each fold's whole Bytes×cost.
func TestMergerStripedPacing(t *testing.T) {
	const (
		workers = 8
		cost    = time.Microsecond
	)
	app := vecApp{n: 75}
	full := time.Duration(8*app.n) * cost // one object's Bytes×cost
	share := full / workers
	newMerger := func(clock *recClock) *Merger {
		return NewMerger(app, MergerOptions{Mode: MergeParallel, Workers: workers, Clock: clock, CostPerByte: cost})
	}

	t.Run("16 simultaneous arrivals", func(t *testing.T) {
		clock := newRecClock()
		m := newMerger(clock)
		for range 16 {
			if err := m.Add(app.filled(1)); err != nil {
				t.Fatal(err)
			}
		}
		if s := clock.took(); len(s) != 0 {
			t.Fatalf("Add slept %v; only Finish may", s)
		}
		red, stats, err := m.Finish()
		if err != nil {
			t.Fatal(err)
		}
		// A pair tree would pay log2(16) = 4 full merges here.
		if s := clock.took(); !slices.Equal(s, []time.Duration{15 * share}) {
			t.Fatalf("Finish slept %v, want once for %v", s, 15*share)
		}
		want := MergerStats{Merges: 15, Busy: 15 * full, MaxParallel: workers}
		if stats != want {
			t.Fatalf("stats %+v, want %+v", stats, want)
		}
		for i, x := range red.(*vecRed).v {
			if x != 16 {
				t.Fatalf("element %d = %v, want 16", i, x)
			}
		}
	})

	t.Run("arrival after the queue drained", func(t *testing.T) {
		clock := newRecClock()
		m := newMerger(clock)
		for range 2 {
			if err := m.Add(app.filled(1)); err != nil {
				t.Fatal(err)
			}
		}
		clock.advance(10 * full) // the first fold's deadline is long past
		if err := m.Add(app.filled(1)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Finish(); err != nil {
			t.Fatal(err)
		}
		if s := clock.took(); !slices.Equal(s, []time.Duration{share}) {
			t.Fatalf("Finish slept %v, want once for %v", s, share)
		}
	})

	t.Run("Fold", func(t *testing.T) {
		clock := newRecClock()
		m := newMerger(clock)
		dst, src := app.filled(1), app.filled(2)
		if err := m.Fold(dst, src); err != nil {
			t.Fatal(err)
		}
		if s := clock.took(); !slices.Equal(s, []time.Duration{share}) {
			t.Fatalf("Fold slept %v, want once for %v", s, share)
		}
		if got := m.Stats(); got != (MergerStats{Merges: 1, Busy: full, MaxParallel: workers}) {
			t.Fatalf("stats %+v", got)
		}
		if dst.v[0] != 3 || src.v[0] != 2 {
			t.Fatalf("dst %v src %v after fold", dst.v[0], src.v[0])
		}
	})
}

// TestMergerSpareConcurrentAdd runs Adds and Spares concurrently (run
// it under -race): Spare may lend an object the accumulator absorbed,
// but never one whose fold is still reading it, and never the
// accumulator. Borrowers scribble over what they get, as a decode
// does, so a premature lend either races a fold or spoils the sum.
func TestMergerSpareConcurrentAdd(t *testing.T) {
	const objects = 64
	app := vecApp{n: 512}
	m := NewMerger(app, MergerOptions{Mode: MergeParallel, Workers: 4})
	added := make(map[Reduction]bool, objects)
	objs := make([]*vecRed, objects)
	for i := range objs {
		objs[i] = app.filled(1)
		added[objs[i]] = true
	}

	var lentMu sync.Mutex
	lent := make(map[Reduction]bool)
	stop := make(chan struct{})
	var borrowers sync.WaitGroup
	for range 3 {
		borrowers.Add(1)
		go func() {
			defer borrowers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				red := m.Spare()
				if !added[red] {
					continue // fresh storage
				}
				r := red.(*vecRed)
				if n := r.reading.Load(); n != 0 {
					t.Errorf("Spare lent an object %d fold(s) are still reading", n)
				}
				lentMu.Lock()
				if lent[red] {
					t.Errorf("Spare lent the same object twice")
				}
				lent[red] = true
				lentMu.Unlock()
				for i := range r.v {
					r.v[i] = -1e9
				}
			}
		}()
	}

	var adders sync.WaitGroup
	for _, o := range objs {
		adders.Add(1)
		go func() {
			defer adders.Done()
			if err := m.Add(o); err != nil {
				t.Error(err)
			}
		}()
	}
	adders.Wait()
	red, stats, err := m.Finish()
	close(stop)
	borrowers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// What the borrowers left is still on loan: every absorbed object
	// is lent exactly once, the accumulator never.
	for {
		spare := m.Spare()
		if !added[spare] {
			break
		}
		if lent[spare] {
			t.Fatal("Spare lent the same object twice")
		}
		lent[spare] = true
	}
	if lent[red] {
		t.Fatal("Spare lent the accumulator")
	}
	if len(lent) != objects-1 {
		t.Fatalf("Spare lent %d absorbed objects, want %d", len(lent), objects-1)
	}
	if stats.Merges != objects-1 {
		t.Fatalf("merges = %d, want %d", stats.Merges, objects-1)
	}
	for i, x := range red.(*vecRed).v {
		if x != objects {
			t.Fatalf("element %d = %v, want %d", i, x, objects)
		}
	}
}
