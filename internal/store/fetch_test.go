package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cloudburst/internal/faults"
	"cloudburst/internal/metrics"
)

func TestFetchWholeObject(t *testing.T) {
	m := NewMem()
	data := fillPattern(1<<20, 13)
	m.Put("d", data)
	got, err := Fetch(m, "d", 0, int64(len(data)), DefaultFetchOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch mismatch")
	}
}

func TestFetchSubRange(t *testing.T) {
	m := NewMem()
	data := fillPattern(100_000, 4)
	m.Put("d", data)
	got, err := Fetch(m, "d", 12_345, 50_000, FetchOptions{Threads: 4, RangeSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[12_345:62_345]) {
		t.Fatal("sub-range fetch mismatch")
	}
}

func TestFetchSequentialFallback(t *testing.T) {
	m := NewMem()
	data := fillPattern(10_000, 2)
	m.Put("d", data)
	got, err := Fetch(m, "d", 0, 10_000, FetchOptions{Threads: 0, RangeSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sequential fetch mismatch")
	}
}

func TestFetchZeroLength(t *testing.T) {
	m := NewMem()
	m.Put("d", fillPattern(10, 0))
	got, err := Fetch(m, "d", 5, 0, DefaultFetchOptions())
	if err != nil || len(got) != 0 {
		t.Fatalf("zero fetch = %v, %v", got, err)
	}
	if _, err := Fetch(m, "d", 0, -1, DefaultFetchOptions()); err == nil {
		t.Fatal("negative length should error")
	}
}

func TestFetchPastEndErrors(t *testing.T) {
	m := NewMem()
	m.Put("d", fillPattern(1000, 0))
	if _, err := Fetch(m, "d", 500, 1000, FetchOptions{Threads: 2, RangeSize: 4 << 10}); err == nil {
		t.Fatal("fetch past end should error")
	}
}

func TestFetchMissingObject(t *testing.T) {
	m := NewMem()
	if _, err := Fetch(m, "ghost", 0, 100, DefaultFetchOptions()); err == nil {
		t.Fatal("fetch of missing object should error")
	}
}

type flakyStore struct {
	*Mem
	failAfter int64 // error on reads at offset >= failAfter
}

func (f *flakyStore) ReadAt(name string, p []byte, off int64) (int, error) {
	if off >= f.failAfter {
		return 0, errors.New("injected failure")
	}
	return f.Mem.ReadAt(name, p, off)
}

func TestFetchPropagatesWorkerError(t *testing.T) {
	m := NewMem()
	m.Put("d", fillPattern(1<<20, 0))
	f := &flakyStore{Mem: m, failAfter: 512 << 10}
	_, err := Fetch(f, "d", 0, 1<<20, FetchOptions{Threads: 4, RangeSize: 64 << 10})
	if err == nil || err.Error() != "injected failure" {
		t.Fatalf("err = %v", err)
	}
}

// Property: Fetch with arbitrary thread/range parameters equals the
// backing bytes for arbitrary in-range windows.
func TestFetchProperty(t *testing.T) {
	m := NewMem()
	data := fillPattern(200_000, 77)
	m.Put("d", data)
	f := func(off uint16, length uint16, threads uint8, rangeKB uint8) bool {
		o := int64(off) % 100_000
		l := int64(length) % 100_000
		got, err := Fetch(m, "d", o, l, FetchOptions{
			Threads:   int(threads%8) + 1,
			RangeSize: (int(rangeKB%32) + 1) << 10,
		})
		if err != nil {
			return false
		}
		return bytes.Equal(got, data[o:o+l])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// faultAtOffset fails reads starting at a given offset until the
// failure budget is used up, then serves normally. Only the one
// sub-range at off touches fails, so concurrent fetch threads share it
// without a lock.
type faultAtOffset struct {
	*Mem
	off   int64
	fails int
}

func (f *faultAtOffset) ReadAt(name string, p []byte, off int64) (int, error) {
	if off == f.off && f.fails > 0 {
		f.fails--
		return 0, faults.ErrTransient
	}
	return f.Mem.ReadAt(name, p, off)
}

func TestFetchOptionsWithDefaultSizesKeepsRetry(t *testing.T) {
	got := FetchOptions{Retry: DefaultRetryPolicy()}.WithDefaultSizes()
	if d := DefaultFetchOptions(); got.Threads != d.Threads || got.RangeSize != d.RangeSize {
		t.Fatalf("sizes not defaulted: %+v", got)
	}
	if got.Retry != DefaultRetryPolicy() {
		t.Fatalf("retry policy dropped: %+v", got.Retry)
	}
	set := FetchOptions{Threads: 2, RangeSize: 4 << 10}
	if got := set.WithDefaultSizes(); got.Threads != 2 || got.RangeSize != 4<<10 {
		t.Fatalf("caller sizes overwritten: %+v", got)
	}
}

func TestFetchZeroLengthAgainstFaultyStore(t *testing.T) {
	// A zero-length fetch issues no requests, so even a store that
	// fails every request cannot fail it.
	m := NewMem()
	m.Put("d", fillPattern(1000, 1))
	s3 := NewSimS3(m, nil, 0, 0, nil).WithFaults(
		faults.NewPlan(1, faults.Spec{Kind: faults.Transient, FirstN: 1 << 20}), "site")
	got, err := Fetch(s3, "d", 100, 0, FetchOptions{Threads: 4, Retry: DefaultRetryPolicy()})
	if err != nil || len(got) != 0 {
		t.Fatalf("zero-length fetch = %v, %v", got, err)
	}
}

func TestFetchRetriesFaultOnLastSubRange(t *testing.T) {
	m := NewMem()
	data := fillPattern(10_000, 9)
	m.Put("d", data)
	// The last planned span of 10000 bytes at RangeSize 4096 fails
	// twice before succeeding.
	f := &faultAtOffset{Mem: m, off: lastSpanStart(10_000, 4096, 1), fails: 2}
	got, err := Fetch(f, "d", 0, 10_000, FetchOptions{
		Threads: 1, RangeSize: 4096,
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after retried last sub-range")
	}
	if f.fails != 0 {
		t.Fatalf("the last span was never requested: %d faults left", f.fails)
	}
}

func TestFetchLastSubRangeExhaustsRetries(t *testing.T) {
	m := NewMem()
	m.Put("d", fillPattern(10_000, 9))
	f := &faultAtOffset{Mem: m, off: lastSpanStart(10_000, 4096, 2), fails: 1 << 30}
	_, err := Fetch(f, "d", 0, 10_000, FetchOptions{
		Threads: 2, RangeSize: 4096,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
	})
	if err == nil {
		t.Fatal("exhausted retries must surface an error")
	}
	if !strings.Contains(err.Error(), "attempts exhausted") || !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("err = %v", err)
	}
}

// lastSpanStart is the offset of the last request Fetch issues for a
// length-byte read with the given RangeSize and Threads.
func lastSpanStart(length int64, rangeSize, threads int) int64 {
	spans := planSpans(length, rangeSize, threads)
	return spans[len(spans)-1].start
}

func TestFetchEveryAttemptFailsReturnsClassifiedError(t *testing.T) {
	// Every request against every range fails: Fetch must return the
	// classified error promptly, not hang or spin.
	m := NewMem()
	m.Put("d", fillPattern(100_000, 5))
	s3 := NewSimS3(m, nil, 0, 0, nil).WithFaults(
		faults.NewPlan(2, faults.Spec{Kind: faults.SlowDown, Prob: 1}), "cloud")
	done := make(chan error, 1)
	go func() {
		_, err := Fetch(s3, "d", 0, 100_000, FetchOptions{
			Threads: 4, RangeSize: 16 << 10,
			Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, faults.ErrSlowDown) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Fetch hung with an always-failing store")
	}
}

func TestFetchWithFaultPlanRecordsRetries(t *testing.T) {
	m := NewMem()
	data := fillPattern(64<<10, 17)
	m.Put("d", data)
	plan := faults.NewPlan(3, faults.Spec{Kind: faults.Transient, FirstN: 2})
	s3 := NewSimS3(m, nil, 0, 0, nil).WithFaults(plan, "cloud")
	var b metrics.Breakdown
	got, err := Fetch(s3, "d", 0, 64<<10, FetchOptions{
		Threads: 4, RangeSize: 8 << 10,
		Retry: RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond},
		Stats: &b,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	snap := b.Snapshot()
	if snap.Retries < 2 || snap.BackoffEmu <= 0 {
		t.Fatalf("retries not recorded: %+v", snap)
	}
	if plan.Total() < 2 {
		t.Fatalf("plan injected %d", plan.Total())
	}
}

// offsetTaggedErrors fails every read with an error naming its offset.
type offsetTaggedErrors struct{ *Mem }

func (f *offsetTaggedErrors) ReadAt(name string, p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("boom@%d", off)
}

func TestFetchReturnsLowestOffsetErrorDeterministically(t *testing.T) {
	// With several workers failing on different sub-ranges, the error
	// surfaced must always be the lowest-offset one, independent of
	// goroutine scheduling.
	m := NewMem()
	m.Put("d", fillPattern(64<<10, 3))
	f := &offsetTaggedErrors{Mem: m}
	for round := 0; round < 50; round++ {
		_, err := Fetch(f, "d", 0, 64<<10, FetchOptions{Threads: 4, RangeSize: 1 << 10})
		if err == nil || err.Error() != "boom@0" {
			t.Fatalf("round %d: err = %v, want boom@0", round, err)
		}
	}
}

// maxConcurrency tracks the peak number of simultaneous readers.
type maxConcurrency struct {
	*Mem
	active, peak atomic.Int64
}

func (m *maxConcurrency) ReadAt(name string, p []byte, off int64) (int, error) {
	n := m.active.Add(1)
	for {
		old := m.peak.Load()
		if n <= old || m.peak.CompareAndSwap(old, n) {
			break
		}
	}
	defer m.active.Add(-1)
	return m.Mem.ReadAt(name, p, off)
}

func TestFetchSpawnsNoMoreReadersThanSubRanges(t *testing.T) {
	m := NewMem()
	data := fillPattern(2<<10, 11)
	m.Put("d", data)
	mc := &maxConcurrency{Mem: m}
	// 2 KiB at 1 KiB ranges plans 4 spans (the 512 B floor caps the
	// round-up to 16); Threads 16 must not put more than 4 readers on
	// the store.
	spans := int64(len(planSpans(2<<10, 1<<10, 16)))
	if spans != 4 {
		t.Fatalf("planned %d spans, want 4", spans)
	}
	got, err := Fetch(mc, "d", 0, 2<<10, FetchOptions{Threads: 16, RangeSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch mismatch")
	}
	if peak := mc.peak.Load(); peak > spans {
		t.Fatalf("peak concurrent readers = %d, want <= %d", peak, spans)
	}
}

func TestFetchPooledBuffersRoundTrip(t *testing.T) {
	// Fetches through a shared pool must never alias live buffers:
	// each result stays intact while later fetches reuse returned
	// buffers. Run under -race in CI.
	m := NewMem()
	objs := make([][]byte, 8)
	for i := range objs {
		objs[i] = fillPattern(32<<10, byte(i+1))
		m.Put(fmt.Sprintf("o%d", i), objs[i])
	}
	pool := NewBufferPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				i := (g + round) % len(objs)
				got, err := Fetch(m, fmt.Sprintf("o%d", i), 0, 32<<10, FetchOptions{
					Threads: 3, RangeSize: 8 << 10, Pool: pool,
				})
				if err != nil {
					panic(err)
				}
				if !bytes.Equal(got, objs[i]) {
					panic("pooled fetch corrupted data")
				}
				pool.Put(got)
			}
		}(g)
	}
	wg.Wait()
	st := pool.Stats()
	if st.Gets != 8*30 || st.Puts != 8*30 {
		t.Fatalf("pool stats = %+v", st)
	}
	if st.Misses == 8*30 {
		t.Fatal("pool never reused a buffer")
	}
}

func TestFetchErrorReturnsBufferToPool(t *testing.T) {
	m := NewMem()
	m.Put("d", fillPattern(1000, 0))
	pool := NewBufferPool()
	if _, err := Fetch(m, "d", 500, 1000, FetchOptions{Threads: 2, RangeSize: 512, Pool: pool}); err == nil {
		t.Fatal("fetch past end should error")
	}
	if st := pool.Stats(); st.Puts != 1 {
		t.Fatalf("failed fetch must recycle its buffer: %+v", st)
	}
}

func TestFetchCountsPoolStats(t *testing.T) {
	m := NewMem()
	m.Put("d", fillPattern(4<<10, 1))
	pool := NewBufferPool()
	var b metrics.Breakdown
	got, err := Fetch(m, "d", 0, 4<<10, FetchOptions{Threads: 2, RangeSize: 1 << 10, Pool: pool, Stats: &b})
	if err != nil {
		t.Fatal(err)
	}
	// sync.Pool guarantees no retention — under the race detector it
	// drops a quarter of all Puts on purpose — so retry the put/fetch
	// round until a pooled reuse lands; the get count stays exact.
	for round := 1; round <= 50; round++ {
		pool.Put(got)
		if got, err = Fetch(m, "d", 0, 4<<10, FetchOptions{Threads: 2, RangeSize: 1 << 10, Pool: pool, Stats: &b}); err != nil {
			t.Fatal(err)
		}
		snap := b.Snapshot()
		if want := int64(round + 1); snap.PoolGets != want {
			t.Fatalf("round %d: PoolGets = %d, want %d", round, snap.PoolGets, want)
		}
		if snap.PoolMisses < snap.PoolGets {
			return // at least one buffer came back from the pool
		}
	}
	t.Fatal("pool never reused a buffer across 50 put/fetch rounds")
}

func TestFetchFromRemoteStore(t *testing.T) {
	m := NewMem()
	data := fillPattern(300_000, 21)
	m.Put("d", data)
	srv := startServer(t, m)
	c := NewClient(srv.Addr(), nil)
	defer c.Close()

	got, err := Fetch(c, "d", 1000, 250_000, FetchOptions{Threads: 6, RangeSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[1000:251_000]) {
		t.Fatal("remote fetch mismatch")
	}
}
