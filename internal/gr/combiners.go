package gr

import (
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
)

// This file provides the "common combination functions already
// implemented in the generalized reduction system library (such as
// aggregation, concatenation, etc.)" the paper's API section
// describes. Applications embed or compose these instead of writing
// Merge/Encode/Decode by hand.

// VectorSum is a reduction object that sums fixed-length float64
// vectors element-wise (aggregation).
type VectorSum struct {
	V []float64
}

// NewVectorSum allocates an n-element accumulator.
func NewVectorSum(n int) *VectorSum { return &VectorSum{V: make([]float64, n)} }

// Add folds one vector into the accumulator.
func (s *VectorSum) Add(v []float64) error {
	if len(v) != len(s.V) {
		return fmt.Errorf("gr: vector length %d != %d", len(v), len(s.V))
	}
	for i, x := range v {
		s.V[i] += x
	}
	return nil
}

// Merge implements the global-reduction fold for VectorSum.
func (s *VectorSum) Merge(other *VectorSum) error { return s.Add(other.V) }

// Encode writes the vector in little-endian binary.
func (s *VectorSum) Encode(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(s.V))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, s.V)
}

// Decode restores the vector.
func (s *VectorSum) Decode(r io.Reader) error {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if n < 0 || n > 1<<30 {
		return fmt.Errorf("gr: bad vector length %d", n)
	}
	s.V = make([]float64, n)
	return binary.Read(r, binary.LittleEndian, s.V)
}

// Bytes reports the accumulator's approximate size.
func (s *VectorSum) Bytes() int { return 8 * len(s.V) }

// Counter is a reduction object counting occurrences by string key
// (keyed aggregation; the generalized-reduction equivalent of a
// word-count combiner).
type Counter struct {
	Counts map[string]int64
}

// NewCounter allocates an empty counter.
func NewCounter() *Counter { return &Counter{Counts: make(map[string]int64)} }

// Inc adds delta to key's count.
func (c *Counter) Inc(key string, delta int64) { c.Counts[key] += delta }

// Merge folds other's counts into c.
func (c *Counter) Merge(other *Counter) error {
	for k, v := range other.Counts {
		c.Counts[k] += v
	}
	return nil
}

// Encode writes the entry count, then each key (length-prefixed) and
// its count in sorted key order, so equal counters encode to equal
// bytes.
func (c *Counter) Encode(w io.Writer) error {
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(c.Counts)))
	for _, k := range slices.Sorted(maps.Keys(c.Counts)) {
		b = binary.LittleEndian.AppendUint64(appendField(b, k), uint64(c.Counts[k]))
	}
	_, err := w.Write(b)
	return err
}

// Decode restores the map.
func (c *Counter) Decode(r io.Reader) error {
	c.Counts = make(map[string]int64)
	f := fieldReader{r: r}
	for i, n := 0, f.length("counter size"); i < n && f.err == nil; i++ {
		k := f.field("counter key")
		c.Counts[string(k)] += f.int64()
	}
	return f.err
}

// Bytes estimates the counter's size.
func (c *Counter) Bytes() int {
	n := 0
	for k := range c.Counts {
		n += len(k) + 8
	}
	return n
}

// Top returns the n highest-count keys, ties broken lexicographically,
// for rendering results.
func (c *Counter) Top(n int) []string {
	keys := slices.Sorted(maps.Keys(c.Counts))
	// Stable, so equal counts keep the lexicographic order.
	sort.SliceStable(keys, func(i, j int) bool { return c.Counts[keys[i]] > c.Counts[keys[j]] })
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// Scored is one element of a TopK set.
type Scored struct {
	ID    int64
	Score float64
}

// TopK keeps the k lowest-score elements seen (e.g. the k nearest
// neighbors by distance). It is a bounded max-heap: the worst element
// sits at the root and is evicted first.
type TopK struct {
	K    int
	Heap []Scored // max-heap by Score
}

// NewTopK allocates a selector of capacity k.
func NewTopK(k int) *TopK { return &TopK{K: k, Heap: make([]Scored, 0, k)} }

// Consider offers an element; it is kept iff it beats the current
// worst (or the set is not yet full).
func (t *TopK) Consider(e Scored) {
	if t.K <= 0 {
		return
	}
	if len(t.Heap) < t.K {
		t.Heap = append(t.Heap, e)
		t.siftUp(len(t.Heap) - 1)
		return
	}
	if e.Score >= t.Heap[0].Score {
		return
	}
	t.Heap[0] = e
	t.siftDown(0)
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.Heap[parent].Score >= t.Heap[i].Score {
			return
		}
		t.Heap[parent], t.Heap[i] = t.Heap[i], t.Heap[parent]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.Heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.Heap[l].Score > t.Heap[largest].Score {
			largest = l
		}
		if r < n && t.Heap[r].Score > t.Heap[largest].Score {
			largest = r
		}
		if largest == i {
			return
		}
		t.Heap[i], t.Heap[largest] = t.Heap[largest], t.Heap[i]
		i = largest
	}
}

// Merge folds other's elements into t.
func (t *TopK) Merge(other *TopK) error {
	for _, e := range other.Heap {
		t.Consider(e)
	}
	return nil
}

// Sorted returns the kept elements ordered best (lowest score) first.
func (t *TopK) Sorted() []Scored {
	out := append([]Scored(nil), t.Heap...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Worst returns the current eviction-boundary score, or +Inf semantics
// via ok=false when not yet full.
func (t *TopK) Worst() (float64, bool) {
	if len(t.Heap) < t.K || len(t.Heap) == 0 {
		return 0, false
	}
	return t.Heap[0].Score, true
}

// Encode writes k and the elements.
func (t *TopK) Encode(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, int64(t.K)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(t.Heap))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, t.Heap)
}

// Decode restores the selector.
func (t *TopK) Decode(r io.Reader) error {
	var k, n int64
	if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if k < 0 || n < 0 || n > k || k > 1<<30 {
		return fmt.Errorf("gr: bad TopK header k=%d n=%d", k, n)
	}
	t.K = int(k)
	t.Heap = make([]Scored, n)
	return binary.Read(r, binary.LittleEndian, t.Heap)
}

// Bytes estimates the selector's size.
func (t *TopK) Bytes() int { return 16 * len(t.Heap) }

// Concat collects byte records in arbitrary order (the paper's
// concatenation combiner).
type Concat struct {
	Items [][]byte
}

// Append adds one record (the slice is copied).
func (c *Concat) Append(rec []byte) {
	c.Items = append(c.Items, append([]byte(nil), rec...))
}

// Merge folds other's items into c.
func (c *Concat) Merge(other *Concat) error {
	c.Items = append(c.Items, other.Items...)
	return nil
}

// Encode writes the item count, then each item length-prefixed, in
// item order.
func (c *Concat) Encode(w io.Writer) error {
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(c.Items)))
	for _, it := range c.Items {
		b = appendField(b, it)
	}
	_, err := w.Write(b)
	return err
}

// Decode restores the items.
func (c *Concat) Decode(r io.Reader) error {
	c.Items = nil
	f := fieldReader{r: r}
	for i, n := 0, f.length("concat size"); i < n && f.err == nil; i++ {
		c.Items = append(c.Items, f.field("concat item"))
	}
	return f.err
}

// Bytes estimates the collection's size.
func (c *Concat) Bytes() int {
	n := 0
	for _, it := range c.Items {
		n += len(it)
	}
	return n
}

// appendField appends f to b, prefixed with its length.
func appendField[T string | []byte](b []byte, f T) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(f))), f...)
}

// maxFieldLen bounds a decoded count or length prefix; anything larger
// is corrupt input, as in VectorSum.Decode and TopK.Decode.
const maxFieldLen = 1 << 30

// fieldReader decodes the little-endian count- and length-prefixed
// fields of the Counter and Concat encodings. The first error sticks:
// later reads return zero values and err reports it.
type fieldReader struct {
	r   io.Reader
	buf [8]byte
	err error
}

func (f *fieldReader) int64() int64 {
	if f.err == nil {
		_, f.err = io.ReadFull(f.r, f.buf[:])
	}
	if f.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(f.buf[:]))
}

// length reads a count or length prefix, rejecting negative and
// implausible values.
func (f *fieldReader) length(what string) int {
	n := f.int64()
	if f.err == nil && (n < 0 || n > maxFieldLen) {
		f.err = fmt.Errorf("gr: bad %s %d", what, n)
	}
	if f.err != nil {
		return 0
	}
	return int(n)
}

// field reads one length-prefixed byte string; empty reads as nil, as
// Concat.Append stores an empty record. The buffer grows in 64 KiB
// steps as bytes arrive, so a corrupt length fails at EOF instead of
// allocating up to maxFieldLen first.
func (f *fieldReader) field(what string) []byte {
	n := f.length(what)
	var b []byte
	for len(b) < n && f.err == nil {
		m := min(n-len(b), 64<<10)
		b = slices.Grow(b, m)
		_, f.err = io.ReadFull(f.r, b[len(b):len(b)+m])
		b = b[:len(b)+m]
	}
	return b
}
