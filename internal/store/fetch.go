package store

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cloudburst/internal/metrics"
	"cloudburst/internal/netsim"
)

// FetchOptions tune the multi-threaded ranged retrieval slaves use for
// chunks whose data lives at another site (Section III-B, "each slave
// retrieves jobs using multiple retrieval threads").
type FetchOptions struct {
	// Threads is the number of concurrent sub-range readers. Values
	// below 1 mean 1 (sequential).
	Threads int
	// RangeSize is the largest request a fetch issues. A range that
	// fits in one RangeSize is read whole; a longer one is split into
	// equal spans (see planSpans). Values below 1 default to 256 KiB;
	// the minimum honoured size is 512 B.
	RangeSize int
	// Retry governs per-sub-range retries of transient failures. The
	// zero policy disables retries.
	Retry RetryPolicy
	// Clock paces retry backoff in emulated time; nil means no pacing.
	Clock netsim.Clock
	// Stats, when set, receives retry/backoff and buffer-pool counters.
	Stats *metrics.Breakdown
	// Pool, when set, supplies the destination buffer instead of a
	// fresh allocation. The caller owns the returned buffer and must
	// eventually hand it back with Pool.Put (directly, or by letting a
	// ChunkCache built over the same pool own it).
	Pool *BufferPool
	// Tuner, when set, overrides Threads with the controller's current
	// AIMD decision and feeds the fetch's observed goodput back into
	// it. Share one Tuner across every fetch travelling the same
	// (site, link) so the controller sees the aggregate behaviour it
	// causes. Requires Clock for the goodput timings; Threads then only
	// seeds the controller (see NewAutotuner).
	Tuner *Autotuner
}

// DefaultFetchOptions matches the paper's multi-threaded retrieval
// configuration scaled to our chunk sizes.
func DefaultFetchOptions() FetchOptions {
	return FetchOptions{Threads: 8, RangeSize: 256 << 10}
}

// WithDefaultSizes fills Threads and RangeSize from
// DefaultFetchOptions when both are unset, keeping every other field
// (Retry, Clock, ...) the caller set.
func (o FetchOptions) WithDefaultSizes() FetchOptions {
	if o.Threads == 0 && o.RangeSize == 0 {
		d := DefaultFetchOptions()
		o.Threads, o.RangeSize = d.Threads, d.RangeSize
	}
	return o
}

func (o FetchOptions) normalize() FetchOptions {
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.RangeSize <= 0 {
		o.RangeSize = 256 << 10
	}
	if o.RangeSize < minSpan {
		o.RangeSize = minSpan
	}
	return o
}

// span is one request of a fetch: [start, end) relative to its offset.
type span struct{ start, end int64 }

// minSpan is the smallest RangeSize honoured, and the smallest span
// planSpans cuts when it has the choice.
const minSpan = 512

// planSpans splits a length-byte read into the requests Fetch issues
// with the given number of readers. A read that fits in one rangeSize
// stays one request: splitting it only adds round trips. A longer one
// needs n0 = ceil(length/rangeSize) requests; the count is rounded up
// to a multiple of the readers, so no reader idles while another
// carries a full range, but never above length/minSpan nor below n0.
// The spans are equal to within one byte, so none exceeds rangeSize.
func planSpans(length int64, rangeSize, readers int) []span {
	if length <= 0 {
		return nil
	}
	r := int64(rangeSize)
	if length <= r {
		return []span{{0, length}}
	}
	n0 := (length + r - 1) / r
	k := int64(max(readers, 1))
	n := max(min((n0+k-1)/k*k, length/minSpan), n0)
	q, rem := length/n, length%n
	spans := make([]span, n)
	for i := range spans {
		start := int64(i)*q + min(int64(i), rem)
		spans[i] = span{start, start + q}
		if int64(i) < rem {
			spans[i].end++
		}
	}
	return spans
}

// Fetch reads [off, off+length) of the named object from st into a
// buffer (pooled when opts.Pool is set, freshly allocated otherwise).
// planSpans cuts the range into requests of at most RangeSize bytes,
// fetched by concurrent readers — Threads of them, or the Tuner's
// decision when the fetch starts, never more than there are spans.
// Each span retries transient failures on its own. Fetch returns an
// error if the object ends before the requested range does; with
// multiple failing spans, the error of the lowest offset is returned,
// deterministically.
func Fetch(st Store, name string, off, length int64, opts FetchOptions) ([]byte, error) {
	if length < 0 {
		return nil, fmt.Errorf("store: negative fetch length %d", length)
	}
	if opts.Tuner != nil {
		opts.Threads = opts.Tuner.Threads()
	}
	opts = opts.normalize()
	buf, miss := opts.Pool.get(length)
	if opts.Pool != nil && opts.Stats != nil {
		var m int64
		if miss {
			m = 1
		}
		opts.Stats.AddPool(1, m)
	}
	spans := planSpans(length, opts.RangeSize, opts.Threads)
	if len(spans) == 0 {
		return buf, nil
	}

	// Every span is enqueued up front so no producer can block on a
	// shrinking reader pool.
	jobs := make(chan span, len(spans))
	for _, s := range spans {
		jobs <- s
	}
	close(jobs)

	onBackoff := retryStats(opts.Stats)
	read := func(s span) error {
		// Short reads stay fatal — the object really is shorter than
		// the index said. The retry key is derived lazily — the clean
		// path never formats it.
		return opts.Retry.DoRanged(opts.Clock, name, off+s.start, func() error {
			n, err := st.ReadAt(name, buf[s.start:s.end], off+s.start)
			if err != nil && err != io.EOF {
				return err
			}
			if int64(n) < s.end-s.start {
				return fmt.Errorf("store: short read of %s at %d: got %d of %d",
					name, off+s.start, n, s.end-s.start)
			}
			return nil
		}, onBackoff)
	}

	var failed lowestFailure
	readers := min(int64(opts.Threads), int64(len(spans)))
	pool := &readerPool{opts: opts, ceiling: readers}
	if opts.Tuner != nil {
		// The controller may raise its decision mid-fetch; readers can
		// grow up to its ceiling, still never past the span count.
		pool.ceiling = min(max(readers, int64(opts.Tuner.Max())), int64(len(spans)))
	}
	pool.reader = func() {
		for s := range jobs {
			if failed.skips(s.start) {
				continue
			}
			t0, issued := pool.begin()
			if err := read(s); err != nil {
				failed.record(s.start, err)
				break
			}
			if pool.finish(s.end-s.start, t0, issued) {
				return
			}
		}
		pool.exit()
	}
	pool.run(readers)

	if failed.err != nil {
		opts.Pool.Put(buf)
		return nil, failed.err
	}
	return buf, nil
}

// lowestFailure keeps the lowest-offset failure among the spans a fetch
// attempted. Spans above a recorded failure are skipped (fail fast) but
// spans below it still run, so the surfaced error is always the
// lowest-offset failure regardless of scheduling.
type lowestFailure struct {
	mu    sync.Mutex
	start int64
	err   error
}

func (f *lowestFailure) record(start int64, err error) {
	f.mu.Lock()
	if f.err == nil || start < f.start {
		f.start, f.err = start, err
	}
	f.mu.Unlock()
}

func (f *lowestFailure) skips(start int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err != nil && start > f.start
}

// readerPool runs a fetch's span readers. Without a Tuner (or without a
// Clock to time spans by) it is static: every reader drains the queue.
// With one it is dynamic: each finished span feeds the controller, and
// the pool grows or shrinks toward the current decision mid-fetch — a
// reader retires after finishing a span when the pool is over target.
type readerPool struct {
	opts    FetchOptions
	ceiling int64  // most readers ever running at once
	reader  func() // one reader's loop; it ends in exit or a retirement
	mu      sync.Mutex
	running int64
	wg      sync.WaitGroup
}

func (p *readerPool) tuned() bool { return p.opts.Tuner != nil && p.opts.Clock != nil }

// run starts n readers and returns once every reader has exited.
func (p *readerPool) run(n int64) {
	p.mu.Lock()
	for i := int64(0); i < n; i++ {
		p.spawn()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *readerPool) spawn() { // requires p.mu
	p.running++
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.reader()
	}()
}

// begin stamps the start of a span for the controller: the time and
// the readers in flight.
func (p *readerPool) begin() (time.Time, int) {
	if !p.tuned() {
		return time.Time{}, 0
	}
	t0 := p.opts.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	return t0, int(p.running)
}

// finish feeds one read span to the controller and moves the pool
// toward its decision. It reports whether the calling reader must
// retire; a retiring reader is already uncounted.
func (p *readerPool) finish(bytes int64, t0 time.Time, issued int) bool {
	if !p.tuned() {
		return false
	}
	dec := p.opts.Tuner.Observe(issued, bytes, p.opts.Clock.ToEmu(p.opts.Clock.Now().Sub(t0)))
	if p.opts.Stats != nil {
		p.opts.Stats.CountAutotune(dec)
	}
	target := min(int64(p.opts.Tuner.Threads()), p.ceiling)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running > target && p.running > 1 {
		// Decide and decrement atomically: releasing the lock before
		// the decrement would let a second reader see the stale count
		// and retire too, draining the pool with spans still queued.
		p.running--
		return true
	}
	for p.running < target {
		p.spawn()
	}
	return false
}

// exit uncounts a reader leaving because the queue drained or its span
// failed for good.
func (p *readerPool) exit() {
	p.mu.Lock()
	p.running--
	p.mu.Unlock()
}
