package store

import (
	"sync"
	"time"
)

// Autotuner is a per-(site, link) AIMD controller over the concurrent
// reader count Fetch uses. The paper fixes the retrieval thread count
// per slave (Section III-B); the right value depends on the link
// profile — per-connection bandwidth vs. the service's aggregate
// egress cap — which varies per site and shifts as other clusters
// compete for the same store. The tuner closes that loop at runtime:
//
//   - every completed sub-range reports its per-stream goodput
//     (bytes / emulated seconds, the same emu-clock timings the
//     metrics layer uses) plus the reader count running at the time;
//   - observations are folded into a window; at each window boundary
//     the mean per-stream rate is compared against the best
//     unsaturated rate seen so far;
//   - while the per-stream rate holds, concurrency is raised — the
//     link is not the bottleneck yet. A fresh controller raises
//     multiplicatively (slow start) so a badly mis-tuned seed
//     converges within a couple of range rounds, then additively
//     (+1) once it has seen the knee;
//   - when the per-stream rate collapses — the aggregate egress cap
//     is binding, so more concurrency just slices the same bandwidth
//     thinner — the count backs off multiplicatively and slow start
//     ends for good.
//
// The resulting sawtooth hugs the saturation knee from below, exactly
// the feedback-driven control VM-MAD applies to cluster sizing, here
// applied to retrieval concurrency. One Autotuner is shared by every
// worker fetching over the same link, so the controller sees the
// aggregate behaviour its decisions actually cause; Fetch grows and
// shrinks its reader pool mid-flight to follow the decisions. All
// methods are safe for concurrent use; a nil Autotuner disables
// tuning.
type Autotuner struct {
	mu sync.Mutex

	threads  int // current concurrency decision
	min, max int
	ss       bool // slow start: raise multiplicatively until the first drop

	window int     // samples folded into one decision epoch
	eps    float64 // tolerated per-stream rate degradation before backoff
	beta   float64 // multiplicative decrease factor

	// Current epoch accumulation. maxRunning is the highest reader
	// count any sample actually ran at; the controller only raises past
	// a target the pool has genuinely reached, so fetches capped by
	// sub-range scarcity hold the decision instead of inflating it.
	samples    int
	bytes      int64
	emu        time.Duration
	maxRunning int

	// bestRate is the best per-stream goodput observed (the
	// unsaturated per-connection rate), decayed mildly each epoch so
	// the controller re-learns a link whose capacity changed.
	bestRate float64

	raises  int64 // increases taken (slow-start doublings count once)
	drops   int64 // multiplicative decreases taken
	observd int64 // sub-ranges observed (all reader counts)
}

// Autotuner controller defaults. The window is short so decisions keep
// pace with the sub-range completion rate; eps tolerates the
// per-stream rate dip right at the knee without thrashing.
const (
	autotuneWindow = 16
	autotuneEps    = 0.18
	autotuneBeta   = 0.8
	autotuneDecay  = 0.995
)

// NewAutotuner returns a controller starting at initial concurrent
// readers and growing to at most max. Values below 1 default: initial
// to DefaultFetchOptions().Threads, max to 4x initial (at least 32).
func NewAutotuner(initial, max int) *Autotuner {
	if initial < 1 {
		initial = DefaultFetchOptions().Threads
	}
	if max < 1 {
		max = 4 * initial
		if max < 32 {
			max = 32
		}
	}
	if max < initial {
		max = initial
	}
	return &Autotuner{
		threads: initial, min: 1, max: max, ss: true,
		window: autotuneWindow, eps: autotuneEps, beta: autotuneBeta,
	}
}

// Threads returns the controller's current concurrency decision.
func (t *Autotuner) Threads() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.threads
}

// Max returns the controller's concurrency ceiling (0 for nil).
func (t *Autotuner) Max() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.max
}

// Observe folds one completed sub-range into the controller: running
// is the reader count active when the range was issued, bytes its
// size, emu the emulated time the stream took to deliver it. It
// returns +1 when the observation closed an epoch that grew the
// thread count, -1 when it shrank it, 0 otherwise. Observations with
// no usable signal (zero bytes or emulated time) only count as
// observed.
func (t *Autotuner) Observe(running int, bytes int64, emu time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observd++
	if bytes <= 0 || emu <= 0 {
		return 0
	}
	t.samples++
	t.bytes += bytes
	t.emu += emu
	if running > t.maxRunning {
		t.maxRunning = running
	}
	if t.samples < t.window {
		return 0
	}
	// Mean per-stream goodput over the epoch: total bytes delivered per
	// stream-second. Below the knee this holds steady as concurrency
	// grows; past it, every added stream dilutes it.
	rate := float64(t.bytes) / t.emu.Seconds()
	achieved := t.maxRunning
	t.samples, t.bytes, t.emu, t.maxRunning = 0, 0, 0, 0

	// Decay then refresh the unsaturated baseline, so a link that
	// genuinely slowed down does not pin the controller at min forever.
	t.bestRate *= autotuneDecay
	if rate > t.bestRate {
		t.bestRate = rate
	}

	if rate >= t.bestRate*(1-t.eps) {
		// Per-stream rate held: the link still has headroom. Only probe
		// past a target the pool actually reached this epoch — when
		// sub-range scarcity caps the readers below target, raising
		// further would just drift the decision away from reality.
		if t.threads > achieved || t.threads >= t.max {
			return 0
		}
		if t.ss {
			t.threads *= 2
		} else {
			t.threads++
		}
		if t.threads > t.max {
			t.threads = t.max
		}
		t.raises++
		return 1
	}
	// Per-stream rate collapsed below the unsaturated baseline: the
	// aggregate cap is binding. Multiplicative decrease, and the end of
	// slow start — from here on the controller probes additively.
	t.ss = false
	next := int(float64(t.threads) * t.beta)
	if next >= t.threads {
		next = t.threads - 1
	}
	if next < t.min {
		next = t.min
	}
	if next == t.threads {
		return 0
	}
	t.threads = next
	t.drops++
	return -1
}

// Goodput returns the best unsaturated per-stream rate the controller
// has observed, in bytes per emulated second (0 for a nil or untrained
// controller). It is the same decayed baseline the AIMD loop compares
// against, so consumers sizing transfers from it track a link whose
// capacity drifts.
func (t *Autotuner) Goodput() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bestRate
}

// AutotuneStats is a point-in-time controller snapshot.
type AutotuneStats struct {
	Threads  int   // current concurrency decision
	Raises   int64 // increases taken
	Drops    int64 // multiplicative decreases taken
	Observed int64 // sub-ranges observed
}

// Stats returns the controller's counters.
func (t *Autotuner) Stats() AutotuneStats {
	if t == nil {
		return AutotuneStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return AutotuneStats{Threads: t.threads, Raises: t.raises, Drops: t.drops, Observed: t.observd}
}
