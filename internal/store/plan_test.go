package store

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// checkSpans verifies the invariants every plan holds: the spans are
// contiguous, cover [0, length), differ in size by at most one byte
// and are never larger than rangeSize.
func checkSpans(spans []span, length int64, rangeSize int) error {
	var next, lo, hi int64 = 0, length, 0
	for i, s := range spans {
		if s.start != next || s.end <= s.start {
			return fmt.Errorf("span %d = %v, want it to start at %d and be non-empty", i, s, next)
		}
		n := s.end - s.start
		lo, hi = min(lo, n), max(hi, n)
		next = s.end
	}
	if next != length {
		return fmt.Errorf("spans cover [0, %d), want [0, %d)", next, length)
	}
	if len(spans) > 0 && hi-lo > 1 {
		return fmt.Errorf("span sizes %d..%d differ by more than one byte", lo, hi)
	}
	if hi > int64(rangeSize) {
		return fmt.Errorf("span of %d B exceeds RangeSize %d", hi, rangeSize)
	}
	return nil
}

func TestPlanSpans(t *testing.T) {
	cases := []struct {
		name              string
		length            int64
		rangeSize, reader int
		wantN             int
		wantMin, wantMax  int64 // span sizes
	}{
		// The four benchmark shapes.
		{"knn-cloud", 12_500, 2 << 10, 8, 8, 1562, 1563},
		{"kmeans-hybrid", 5_000, 2 << 10, 8, 8, 625, 625},
		{"hostpath-knn fits one range", 200_000, 256 << 10, 2, 1, 200_000, 200_000},
		{"local disk", 12_500, 12_500, 1, 1, 12_500, 12_500},

		{"zero length", 0, 2 << 10, 8, 0, 0, 0},
		{"below 512 B", 300, 2 << 10, 8, 1, 300, 300},
		{"exactly one range", 2 << 10, 2 << 10, 8, 1, 2 << 10, 2 << 10},
		{"one reader keeps n0", 10_000, 4096, 1, 3, 3333, 3334},
		{"rounded up to readers", 10_000, 4096, 2, 4, 2500, 2500},
		{"already a multiple", 8 << 10, 2 << 10, 4, 4, 2 << 10, 2 << 10},
		{"capped at length/512", 3_000, 2 << 10, 8, 5, 600, 600},
		{"cap below n0 keeps n0", 1_000, 512, 4, 2, 500, 500},
		{"readers below 1 mean 1", 10_000, 4096, 0, 3, 3333, 3334},
	}
	for _, c := range cases {
		spans := planSpans(c.length, c.rangeSize, c.reader)
		if err := checkSpans(spans, c.length, c.rangeSize); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if len(spans) != c.wantN {
			t.Errorf("%s: %d spans, want %d", c.name, len(spans), c.wantN)
			continue
		}
		for _, s := range spans {
			if n := s.end - s.start; n < c.wantMin || n > c.wantMax {
				t.Errorf("%s: span %v is %d B, want %d..%d", c.name, s, n, c.wantMin, c.wantMax)
			}
		}
	}
}

// Property: for any length, RangeSize and reader count the plan holds
// checkSpans' invariants, and its span count is a multiple of the
// readers whenever the length/512 cap allows one at or above n0.
func TestPlanSpansProperty(t *testing.T) {
	f := func(length uint32, rangeSize uint16, readers uint8) bool {
		l := int64(length % (4 << 20))
		r := minSpan + int(rangeSize)
		k := int64(readers%64) + 1
		spans := planSpans(l, r, int(k))
		if err := checkSpans(spans, l, r); err != nil {
			t.Log(err)
			return false
		}
		n := int64(len(spans))
		if l == 0 || l <= int64(r) {
			return n == min(l, 1)
		}
		n0 := (l + int64(r) - 1) / int64(r)
		if n < n0 {
			return false
		}
		if up := (n0 + k - 1) / k * k; up <= l/minSpan {
			return n == up
		}
		return n == max(n0, l/minSpan)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// recordingStore logs every request Fetch issues against it.
type recordingStore struct {
	*Mem
	mu   sync.Mutex
	reqs []span
}

func (r *recordingStore) ReadAt(name string, p []byte, off int64) (int, error) {
	r.mu.Lock()
	r.reqs = append(r.reqs, span{off, off + int64(len(p))})
	r.mu.Unlock()
	return r.Mem.ReadAt(name, p, off)
}

func TestFetchIssuesPlannedSpans(t *testing.T) {
	// The benchmark shapes: Fetch must issue exactly the planned
	// requests, so a chunk that fits one range (hostpath-knn, local
	// disk) stays a single request.
	cases := []struct {
		name             string
		length           int64
		threads, rangeSz int
		wantReqs         int
	}{
		{"knn-cloud", 12_500, 8, 2 << 10, 8},
		{"kmeans-hybrid", 5_000, 8, 2 << 10, 8},
		{"hostpath-knn", 200_000, 2, 256 << 10, 1},
		{"local disk", 12_500, 1, 12_500, 1},
	}
	const off = 1_000
	for _, c := range cases {
		m := NewMem()
		data := fillPattern(int(off+c.length), 5)
		m.Put("d", data)
		rec := &recordingStore{Mem: m}
		got, err := Fetch(rec, "d", off, c.length, FetchOptions{Threads: c.threads, RangeSize: c.rangeSz})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, data[off:]) {
			t.Fatalf("%s: fetch mismatch", c.name)
		}
		var want []span
		for _, s := range planSpans(c.length, c.rangeSz, c.threads) {
			want = append(want, span{off + s.start, off + s.end})
		}
		slices.SortFunc(rec.reqs, func(a, b span) int { return int(a.start - b.start) })
		if len(rec.reqs) != c.wantReqs || !slices.Equal(rec.reqs, want) {
			t.Errorf("%s: requests %v, want %d planned %v", c.name, rec.reqs, c.wantReqs, want)
		}
	}
}
