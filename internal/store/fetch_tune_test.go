package store

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"cloudburst/internal/metrics"
	"cloudburst/internal/netsim"
)

func TestFetchOptionsNormalizeEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		in, want FetchOptions
	}{
		{"zero threads", FetchOptions{Threads: 0, RangeSize: 1 << 10}, FetchOptions{Threads: 1, RangeSize: 1 << 10}},
		{"negative threads", FetchOptions{Threads: -3, RangeSize: 1 << 10}, FetchOptions{Threads: 1, RangeSize: 1 << 10}},
		{"zero range", FetchOptions{Threads: 4, RangeSize: 0}, FetchOptions{Threads: 4, RangeSize: 256 << 10}},
		{"negative range", FetchOptions{Threads: 4, RangeSize: -1}, FetchOptions{Threads: 4, RangeSize: 256 << 10}},
		{"tiny range clamps up", FetchOptions{Threads: 4, RangeSize: 100}, FetchOptions{Threads: 4, RangeSize: 512}},
		{"just below floor", FetchOptions{Threads: 4, RangeSize: 511}, FetchOptions{Threads: 4, RangeSize: 512}},
		{"at floor", FetchOptions{Threads: 4, RangeSize: 512}, FetchOptions{Threads: 4, RangeSize: 512}},
		{"well-formed untouched", FetchOptions{Threads: 8, RangeSize: 64 << 10}, FetchOptions{Threads: 8, RangeSize: 64 << 10}},
	}
	for _, c := range cases {
		got := c.in.normalize()
		if got.Threads != c.want.Threads || got.RangeSize != c.want.RangeSize {
			t.Errorf("%s: normalize(%+v) = threads %d range %d, want %d / %d",
				c.name, c.in, got.Threads, got.RangeSize, c.want.Threads, c.want.RangeSize)
		}
	}
}

func TestFetchZeroLengthWithPool(t *testing.T) {
	// A zero-length fetch through a pool must still round-trip the
	// buffer machinery (counted get, returnable buffer) without touching
	// the store.
	m := NewMem()
	m.Put("d", fillPattern(100, 1))
	pool := NewBufferPool()
	var stats metrics.Breakdown
	got, err := Fetch(m, "d", 50, 0, FetchOptions{Pool: pool, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("zero-length fetch = %v", got)
	}
	if st := pool.Stats(); st.Gets != 1 {
		t.Fatalf("pool gets = %d, want 1", st.Gets)
	}
	if r := stats.Snapshot(); r.PoolGets != 1 {
		t.Fatalf("breakdown pool gets = %d, want 1", r.PoolGets)
	}
	pool.Put(got)
}

// pacedConcurrency tracks peak simultaneous readers like
// maxConcurrency, but holds each read open for a fixed wall delay so
// overlap is observable and per-stream timings are stable.
type pacedConcurrency struct {
	*Mem
	active, peak atomic.Int64
	delay        time.Duration
}

func (m *pacedConcurrency) ReadAt(name string, p []byte, off int64) (int, error) {
	n := m.active.Add(1)
	for {
		old := m.peak.Load()
		if n <= old || m.peak.CompareAndSwap(old, n) {
			break
		}
	}
	defer m.active.Add(-1)
	time.Sleep(m.delay)
	return m.Mem.ReadAt(name, p, off)
}

func TestFetchTunedPoolGrowsMidFetch(t *testing.T) {
	// Seeded at 1 reader with headroom to 8, the controller must raise
	// the decision mid-fetch and the worker pool must follow it: the
	// store sees more than one simultaneous reader before the fetch
	// ends, without ever exceeding the controller ceiling.
	m := NewMem()
	data := fillPattern(256<<10, 9)
	m.Put("d", data)
	mc := &pacedConcurrency{Mem: m, delay: 200 * time.Microsecond}
	tu := NewAutotuner(1, 8)
	got, err := Fetch(mc, "d", 0, int64(len(data)), FetchOptions{
		RangeSize: 1 << 10, // 256 sub-ranges: plenty of epochs
		Clock:     netsim.Real(),
		Tuner:     tu,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("tuned fetch corrupted data")
	}
	st := tu.Stats()
	if st.Observed != 256 {
		t.Fatalf("observed %d sub-ranges, want 256", st.Observed)
	}
	if st.Raises < 1 {
		t.Fatalf("controller never raised: %+v", st)
	}
	peak := mc.peak.Load()
	if peak < 2 {
		t.Fatalf("pool never grew past the seed: peak = %d", peak)
	}
	if peak > 8 {
		t.Fatalf("pool exceeded the controller ceiling: peak = %d", peak)
	}
}

func TestFetchTunedShrinkKeepsSurvivor(t *testing.T) {
	// Regression: a reader's retirement decision and its running-count
	// decrement must happen atomically under poolMu. They used to be
	// split (decrement in a deferred func after the unlock), so when the
	// controller collapsed toward 1 reader, two readers could both see
	// the stale count, both pass `running > 1`, and both retire — the
	// pool hit zero with sub-ranges still queued and Fetch returned a
	// partially-filled buffer with no error. The tuner here is rigged to
	// back off on every epoch (bestRate pinned far above anything the
	// store can achieve), driving 8 readers down to 1 mid-fetch.
	m := NewMem()
	data := fillPattern(64<<10, 7)
	m.Put("d", data)
	for i := 0; i < 30; i++ {
		mc := &pacedConcurrency{Mem: m, delay: 50 * time.Microsecond}
		tu := &Autotuner{
			threads: 8, min: 1, max: 8, window: 1,
			eps: autotuneEps, beta: autotuneBeta,
			bestRate: math.MaxFloat64 / 4,
		}
		got, err := Fetch(mc, "d", 0, int64(len(data)), FetchOptions{
			RangeSize: 512, // 128 sub-ranges: the shrink happens mid-flight
			Clock:     netsim.Real(),
			Tuner:     tu,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("iteration %d: shrinking pool dropped queued sub-ranges", i)
		}
		if st := tu.Stats(); st.Drops < 1 {
			t.Fatalf("iteration %d: tuner never backed off: %+v", i, st)
		}
	}
}

func TestFetchTunerOverridesStaticThreads(t *testing.T) {
	// With a Tuner installed, the static Threads value is only a
	// leftover seed; the controller decision governs the pool size.
	m := NewMem()
	data := fillPattern(8<<10, 3)
	m.Put("d", data)
	mc := &maxConcurrency{Mem: m}
	tu := NewAutotuner(1, 1) // decision pinned at 1
	got, err := Fetch(mc, "d", 0, int64(len(data)), FetchOptions{
		Threads:   16, // ignored in favor of the tuner
		RangeSize: 1 << 10,
		Clock:     netsim.Real(),
		Tuner:     tu,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch mismatch")
	}
	if peak := mc.peak.Load(); peak != 1 {
		t.Fatalf("pinned tuner still saw %d concurrent readers", peak)
	}
}
