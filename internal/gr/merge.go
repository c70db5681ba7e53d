package gr

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cloudburst/internal/netsim"
)

// MergeMode selects how a Merger combines arriving reductions.
type MergeMode int

const (
	// MergeSerial folds each arrival into one accumulator on the
	// caller's goroutine (the classic MergeAll order, incremental).
	MergeSerial MergeMode = iota
	// MergeParallel runs availability-driven pair merges on a worker
	// pool: any two ready objects merge as soon as a worker frees,
	// forming a binary tree whose shape follows arrival order. An
	// Elementwise reduction instead folds every arrival into one
	// accumulator, each fold striped over the workers.
	MergeParallel
)

// Elementwise marks a reduction whose Merge is an elementwise sum over
// storage of one fixed shape (pagerank's rank vector, kmeans' sums and
// counts). Such a fold splits into independent stripes, so a parallel
// Merger folds every arrival into a single accumulator, the stripes
// spread over its workers, instead of pairing objects up in a tree:
// no level of the tree waits for its slowest pair, and the absorbed
// objects are free for reuse (Merger.Spare).
type Elementwise interface {
	// ElementwiseMerge is a marker; it is never called.
	ElementwiseMerge()
}

func (m MergeMode) String() string {
	switch m {
	case MergeSerial:
		return "serial"
	case MergeParallel:
		return "parallel"
	}
	return fmt.Sprintf("MergeMode(%d)", int(m))
}

// MergerStats describes the work a Merger performed. Busy sums the
// wall-clock spans of every merge operation — under parallel mode the
// spans overlap, so Busy exceeding the Finish tail is exactly the
// merge time hidden behind transfer.
type MergerStats struct {
	// Merges is the number of merge operations performed (pair merges,
	// accumulator folds, or whole arrivals under serial mode).
	Merges int
	// Busy is the summed wall-clock span of all merge operations; a
	// striped accumulator fold counts its whole modeled work (the fold's
	// real span plus Bytes×CostPerByte), not its share per worker.
	Busy time.Duration
	// MaxParallel is the peak number of concurrently running merge
	// workers (1 under serial mode, the pool width once a striped
	// accumulator fold ran).
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
	running int         // pair merges or accumulator folds in flight
	acc     Reduction   // serial or striped accumulator
	due     time.Time   // wall time the queued striped folds complete
	spare   []Reduction // objects the striped accumulator absorbed
	stats   MergerStats
	err     error

	// serial serializes accumulator merges: Adds may arrive from
	// concurrent connection handlers, but serial mode and the striped
	// accumulator fold into one shared object, so the folds must queue.
	serial sync.Mutex
}

// MergerOptions configures a Merger. The zero value is a serial
// merger on an instant clock.
type MergerOptions struct {
	// Mode selects the merge strategy.
	Mode MergeMode
	// Workers bounds the merge worker pool for MergeParallel; <=0
	// picks GOMAXPROCS.
	Workers int
	// Clock times merge spans (wall side); nil picks netsim.Instant.
	Clock netsim.Clock
	// CostPerByte charges each merge an emulated duration per byte of
	// the folded-in object, paced through Clock. The benchmark harness
	// scales data (and thus reduction objects) ~10,000x below the
	// paper's sizes, which silently erases the very real CPU cost of
	// folding a paper-scale (~300 MB) object; this knob restores it the
	// same way the engine's per-unit cost restores map-phase compute.
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

// pace charges the emulated cost of folding other.
func (m *Merger) pace(other Reduction) {
	if m.cost <= 0 {
		return
	}
	m.clock.Sleep(time.Duration(other.Bytes()) * m.cost)
}

// Add submits one reduction object. Ownership transfers to the
// merger; the object must not be touched afterwards. Nil objects are
// skipped (mirroring MergeAll). A latched merge error is returned
// early so callers can stop feeding a dead merger.
func (m *Merger) Add(red Reduction) error {
	if red == nil {
		return nil
	}
	if m.mode != MergeParallel || m.striped(red) {
		return m.addAcc(red)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	m.ready = append(m.ready, red)
	m.kick()
	return nil
}

// striped reports whether red folds into the striped accumulator: a
// parallel merger's Elementwise reductions.
func (m *Merger) striped(red Reduction) bool {
	_, ok := red.(Elementwise)
	return ok && m.mode == MergeParallel
}

// addAcc folds red into the shared accumulator on the caller's
// goroutine. The fold runs outside the state lock so stats reads never
// block behind it, but concurrent Adds (one per connection handler)
// must still queue on the accumulator. Serial mode starts from a fresh
// object and pays each fold's cost in full, here; the striped
// accumulator is the first arrival, queues each fold's cost on the
// deadline Finish sleeps to, and keeps the absorbed object as a spare.
func (m *Merger) addAcc(red Reduction) error {
	striped := m.striped(red)
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return m.err
	}
	if m.acc == nil {
		if striped {
			m.acc = red
			m.mu.Unlock()
			return nil
		}
		m.acc = m.app.NewReduction()
	}
	acc := m.acc
	m.running++
	m.mu.Unlock()

	m.serial.Lock()
	var err error
	if striped {
		_, err = m.stripe(acc, red)
	} else {
		err = m.fold(acc, red)
	}
	m.serial.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	m.cond.Broadcast()
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("gr: merge: %w", err)
	}
	if striped && err == nil {
		m.spare = append(m.spare, red)
	}
	return m.err
}

// stripe merges src into dst on the caller's goroutine and queues the
// fold's emulated cost: Bytes×CostPerByte spread over the pool's
// workers, which each fold one stripe of the object. Folds into one
// accumulator run one after another, so each starts when the queue
// drains; the caller sleeps to the returned deadline (Finish, Fold)
// or leaves it for a later sleep to cover (Add). src is only read.
func (m *Merger) stripe(dst, src Reduction) (time.Time, error) {
	t0 := m.clock.Now()
	err := dst.Merge(src)
	now := m.clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		return time.Time{}, err
	}
	work := time.Duration(src.Bytes()) * m.cost
	if m.due.Before(now) {
		m.due = now
	}
	m.due = m.due.Add(m.clock.ToWall(work / time.Duration(m.workers)))
	m.stats.Merges++
	m.stats.Busy += now.Sub(t0) + m.clock.ToWall(work)
	m.stats.MaxParallel = max(m.stats.MaxParallel, m.workers)
	return m.due, nil
}

// sleepUntil blocks on the clock until the wall time due.
func (m *Merger) sleepUntil(due time.Time) {
	if d := due.Sub(m.clock.Now()); d > 0 {
		m.clock.Sleep(m.clock.ToEmu(d))
	}
}

// fold merges src into dst on the caller's goroutine, charges the
// emulated cost, and tallies the span. src is only read.
func (m *Merger) fold(dst, src Reduction) error {
	t0 := m.clock.Now()
	err := dst.Merge(src)
	if err == nil {
		m.pace(src)
	}
	span := m.clock.Now().Sub(t0)

	m.mu.Lock()
	m.stats.Merges++
	m.stats.Busy += span
	if m.stats.MaxParallel < 1 {
		m.stats.MaxParallel = 1
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
	var err error
	if m.striped(dst) {
		var due time.Time
		if due, err = m.stripe(dst, src); err == nil {
			m.sleepUntil(due)
		}
	} else {
		err = m.fold(dst, src)
	}
	if err != nil {
		return fmt.Errorf("gr: merge: %w", err)
	}
	return nil
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
		m.pace(b)
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
	switch {
	case m.acc != nil && m.mode == MergeParallel:
		// The striped accumulator: every fold is done, so only the
		// queued emulated cost remains, slept off in one go.
		acc, stats, due := m.acc, m.stats, m.due
		m.mu.Unlock()
		m.sleepUntil(due)
		m.mu.Lock() // for the deferred Unlock
		return acc, stats, nil
	case m.mode == MergeParallel:
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
			m.pace(b)
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

// Spare returns storage to decode one more object into: an object the
// striped accumulator has absorbed, whose fold is complete, or a fresh
// NewReduction when there is none. Objects are handed out once; the
// accumulator itself never is. Decode overwrites whatever state a
// spare holds (the Reduction contract).
func (m *Merger) Spare() Reduction {
	var red Reduction
	m.mu.Lock()
	if n := len(m.spare); n > 0 {
		red, m.spare = m.spare[n-1], m.spare[:n-1]
	}
	m.mu.Unlock()
	if red == nil {
		red = m.app.NewReduction()
	}
	return red
}

// Stats returns the merger's work tallies so far.
func (m *Merger) Stats() MergerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// MergeAllParallel merges objs with a worker-pool binary tree: any two
// available objects merge as soon as a worker frees, so the tree shape
// adapts to per-merge cost instead of a fixed bracket (Elementwise
// objects fold into one striped accumulator instead). The result is
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
