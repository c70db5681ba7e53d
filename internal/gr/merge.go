package gr

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cloudburst/internal/netsim"
)

// ShardedReduction is an optional refinement of Reduction for objects
// whose state splits into independent shards (a rank vector's index
// ranges, a counter's hash partitions). Two reductions of the same
// shape merge shard-parallel with zero copies: MergeShard(i, other)
// folds only shard i of other into shard i of the receiver, and
// distinct shards may be merged concurrently.
type ShardedReduction interface {
	Reduction
	// Shards reports the shard count. Two reductions merge
	// shard-parallel only when their counts agree.
	Shards() int
	// MergeShard folds shard i of other into shard i of the receiver.
	// Calls with distinct i values must be safe to run concurrently;
	// other is only read.
	MergeShard(i int, other Reduction) error
}

// MergeMode selects how a Merger combines arriving reductions.
type MergeMode int

const (
	// MergeSerial folds each arrival into one accumulator on the
	// caller's goroutine (the classic MergeAll order, incremental).
	MergeSerial MergeMode = iota
	// MergeParallel runs availability-driven pair merges on a worker
	// pool: any two ready objects merge as soon as a worker frees,
	// forming a binary tree whose shape follows arrival order.
	MergeParallel
	// MergeSharded serializes arrivals but parallelizes each merge
	// across the reduction's shards (ShardedReduction); non-shardable
	// objects fall back to a whole-object merge.
	MergeSharded
)

func (m MergeMode) String() string {
	switch m {
	case MergeSerial:
		return "serial"
	case MergeParallel:
		return "parallel"
	case MergeSharded:
		return "sharded"
	}
	return fmt.Sprintf("MergeMode(%d)", int(m))
}

// MergerStats describes the work a Merger performed. Busy sums the
// wall-clock spans of every merge operation — under parallel modes the
// spans overlap, so Busy exceeding the Finish tail is exactly the
// merge time hidden behind transfer.
type MergerStats struct {
	// Merges is the number of merge operations performed (pair merges,
	// or whole arrivals under serial/sharded modes).
	Merges int
	// Busy is the summed wall-clock span of all merge operations.
	Busy time.Duration
	// MaxParallel is the peak number of concurrently running merge
	// workers (1 under serial mode).
	MaxParallel int
}

// Merger combines reduction objects incrementally, so merging overlaps
// with whatever produces the objects (typically network transfer of
// the remaining peers' results). Add hands over ownership of the
// object; Finish waits out in-flight work and returns the combined
// result. A Merger is safe for concurrent Add calls.
type Merger struct {
	app     App
	mode    MergeMode
	workers int
	clock   netsim.Clock
	cost    time.Duration // emulated cost per folded byte

	mu      sync.Mutex
	cond    *sync.Cond
	ready   []Reduction // objects awaiting a merge partner
	running int         // pair-merge workers currently busy
	acc     Reduction   // serial/sharded accumulator
	stats   MergerStats
	err     error

	// serial serializes accumulator merges under serial/sharded modes:
	// Adds may arrive from concurrent connection handlers, but those
	// modes fold into one shared accumulator, so the folds must queue.
	serial sync.Mutex
}

// MergerOptions configures a Merger. The zero value is a serial
// merger on an instant clock.
type MergerOptions struct {
	// Mode selects the merge strategy.
	Mode MergeMode
	// Workers bounds the merge worker pool for MergeParallel and the
	// shard fan-out for MergeSharded; <=0 picks GOMAXPROCS.
	Workers int
	// Clock times merge spans (wall side); nil picks netsim.Instant.
	Clock netsim.Clock
	// CostPerByte charges each merge an emulated duration per byte of
	// the folded-in object, paced through Clock. The benchmark harness
	// scales data (and thus reduction objects) ~10,000x below the
	// paper's sizes, which silently erases the very real CPU cost of
	// folding a paper-scale (~300 MB) object; this knob restores it the
	// same way the engine's per-unit cost restores map-phase compute.
	// Sharded merges divide the charge across their shard parallelism.
	// Zero charges nothing (merges cost only their real CPU).
	CostPerByte time.Duration
}

// NewMerger builds a merger for app's reductions.
func NewMerger(app App, opts MergerOptions) *Merger {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Clock == nil {
		opts.Clock = netsim.Instant()
	}
	m := &Merger{app: app, mode: opts.Mode, workers: opts.Workers,
		clock: opts.Clock, cost: opts.CostPerByte}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// pace charges the emulated cost of folding other, divided by par (the
// fold's internal parallelism; 1 for whole-object merges).
func (m *Merger) pace(other Reduction, par int) {
	if m.cost <= 0 {
		return
	}
	if par < 1 {
		par = 1
	}
	m.clock.Sleep(time.Duration(other.Bytes()) * m.cost / time.Duration(par))
}

// Add submits one reduction object. Ownership transfers to the
// merger; the object must not be touched afterwards. Nil objects are
// skipped (mirroring MergeAll). A latched merge error is returned
// early so callers can stop feeding a dead merger.
func (m *Merger) Add(red Reduction) error {
	if red == nil {
		return nil
	}
	switch m.mode {
	case MergeParallel:
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.err != nil {
			return m.err
		}
		m.ready = append(m.ready, red)
		m.kick()
		return nil
	default:
		return m.addAcc(red)
	}
}

// addAcc folds red into the shared accumulator on the caller's
// goroutine (serial and sharded modes). The fold runs outside the
// state lock so stats reads never block behind it, but concurrent Adds
// (one per connection handler) must still queue on the accumulator.
func (m *Merger) addAcc(red Reduction) error {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return m.err
	}
	if m.acc == nil {
		m.acc = m.app.NewReduction()
	}
	acc := m.acc
	m.mu.Unlock()

	m.serial.Lock()
	err := m.fold(acc, red)
	m.serial.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("gr: merge: %w", err)
	}
	return m.err
}

// fold merges src into dst on the caller's goroutine, charges the
// emulated cost, and tallies the span. Sharded mode parallelizes
// across the objects' shards when both sides are shardable with
// matching counts; everything else is a whole-object merge. src is
// only read.
func (m *Merger) fold(dst, src Reduction) error {
	t0 := m.clock.Now()
	var err error
	par := 1
	sd, okD := dst.(ShardedReduction)
	ss, okS := src.(ShardedReduction)
	if m.mode == MergeSharded && okD && okS && sd.Shards() == ss.Shards() && sd.Shards() > 1 {
		err = mergeShards(sd, src, m.workers)
		if par = sd.Shards(); par > m.workers {
			par = m.workers
		}
	} else {
		err = dst.Merge(src)
	}
	if err == nil {
		m.pace(src, par)
	}
	span := m.clock.Now().Sub(t0)

	m.mu.Lock()
	m.stats.Merges++
	m.stats.Busy += span
	if par > m.stats.MaxParallel {
		m.stats.MaxParallel = par
	}
	m.mu.Unlock()
	return err
}

// Fold merges src into dst under the merger's mode and per-byte cost,
// counted in its stats, without touching the Add/Finish accumulator:
// the one extra fold a receiver owes after Finish (a laggard's own
// result into the partial merge of everyone else). src is only read,
// so it may be encoded concurrently.
func (m *Merger) Fold(dst, src Reduction) error {
	if err := m.fold(dst, src); err != nil {
		return fmt.Errorf("gr: merge: %w", err)
	}
	return nil
}

// mergeShards fans MergeShard calls for every shard of other into dst
// across at most workers goroutines.
func mergeShards(dst ShardedReduction, other Reduction, workers int) error {
	shards := dst.Shards()
	if workers > shards {
		workers = shards
	}
	var (
		next int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs error
	)
	next = -1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				next++
				i := next
				mu.Unlock()
				if i >= int64(shards) {
					return
				}
				if err := dst.MergeShard(int(i), other); err != nil {
					mu.Lock()
					if errs == nil {
						errs = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// kick (parallel mode, caller holds mu) starts pair merges while two
// objects are ready and a worker slot is free.
func (m *Merger) kick() {
	for m.err == nil && len(m.ready) >= 2 && m.running < m.workers {
		a := m.ready[len(m.ready)-1]
		b := m.ready[len(m.ready)-2]
		m.ready = m.ready[:len(m.ready)-2]
		m.running++
		if m.running > m.stats.MaxParallel {
			m.stats.MaxParallel = m.running
		}
		go m.pair(a, b)
	}
}

// pair merges b into a off-lock, then returns a to the ready list.
func (m *Merger) pair(a, b Reduction) {
	t0 := m.clock.Now()
	err := a.Merge(b)
	if err == nil {
		m.pace(b, 1)
	}
	span := m.clock.Now().Sub(t0)

	m.mu.Lock()
	m.running--
	m.stats.Merges++
	m.stats.Busy += span
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("gr: merge: %w", err)
	}
	if m.err == nil {
		m.ready = append(m.ready, a)
		m.kick()
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Finish waits for in-flight merges, folds any remainder, and returns
// the combined object with the merger's stats. With no Adds the
// result is a fresh (identity) reduction. The merger must not be fed
// afterwards; Fold stays usable.
func (m *Merger) Finish() (Reduction, MergerStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.running > 0 {
		m.cond.Wait()
	}
	if m.err != nil {
		return nil, m.stats, m.err
	}
	switch m.mode {
	case MergeParallel:
		// At most one object can remain once workers drain, unless the
		// pool was 1-wide and arrivals raced Finish; fold what's left.
		for len(m.ready) >= 2 {
			a := m.ready[len(m.ready)-1]
			b := m.ready[len(m.ready)-2]
			m.ready = m.ready[:len(m.ready)-2]
			t0 := m.clock.Now()
			if err := a.Merge(b); err != nil {
				m.err = fmt.Errorf("gr: merge: %w", err)
				return nil, m.stats, m.err
			}
			m.pace(b, 1)
			m.stats.Busy += m.clock.Now().Sub(t0)
			m.stats.Merges++
			m.ready = append(m.ready, a)
		}
		if len(m.ready) == 1 {
			return m.ready[0], m.stats, nil
		}
		return m.app.NewReduction(), m.stats, nil
	default:
		if m.acc == nil {
			m.acc = m.app.NewReduction()
		}
		return m.acc, m.stats, nil
	}
}

// Stats returns the merger's work tallies so far.
func (m *Merger) Stats() MergerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// MergeAllParallel merges objs with a worker-pool binary tree: any two
// available objects merge as soon as a worker frees, so the tree shape
// adapts to per-merge cost instead of a fixed bracket. The result is
// content-equal to MergeAll for any order-independent Reduction (the
// gr contract). workers <= 0 picks GOMAXPROCS.
func MergeAllParallel(app App, objs []Reduction, workers int) (Reduction, error) {
	m := NewMerger(app, MergerOptions{Mode: MergeParallel, Workers: workers})
	for _, o := range objs {
		if err := m.Add(o); err != nil {
			return nil, fmt.Errorf("gr: global reduction: %w", err)
		}
	}
	red, _, err := m.Finish()
	if err != nil {
		return nil, fmt.Errorf("gr: global reduction: %w", err)
	}
	return red, nil
}

// MergeAllSharded merges objs serially at the object level but
// shard-parallel within each merge (ShardedReduction); objects without
// shards fall back to whole-object merges. workers <= 0 picks
// GOMAXPROCS.
func MergeAllSharded(app App, objs []Reduction, workers int) (Reduction, error) {
	m := NewMerger(app, MergerOptions{Mode: MergeSharded, Workers: workers})
	for _, o := range objs {
		if err := m.Add(o); err != nil {
			return nil, fmt.Errorf("gr: global reduction: %w", err)
		}
	}
	red, _, err := m.Finish()
	if err != nil {
		return nil, fmt.Errorf("gr: global reduction: %w", err)
	}
	return red, nil
}
