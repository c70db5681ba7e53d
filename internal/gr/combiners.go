package gr

import (
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
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

// Encode writes the vector in little-endian binary: the length, then
// each element's IEEE-754 bits.
func (s *VectorSum) Encode(w io.Writer) error {
	return writeElems(w, []uint64{uint64(len(s.V))}, len(s.V), 8, func(b []byte, from int) {
		putFloat64s(b, s.V[from:from+len(b)/8])
	})
}

// Decode restores the vector into the storage s already holds when it
// is large enough (a receiver's NewReduction allocated it), growing it
// only as elements arrive otherwise.
func (s *VectorSum) Decode(r io.Reader) error {
	f := fieldReader{r: r}
	n := f.length("vector length")
	if f.err != nil {
		return f.err
	}
	var err error
	s.V, err = readElems(r, s.V, n, 8, getFloat64s)
	return err
}

// putFloat64s writes v's IEEE-754 bits, little-endian, into b, which
// holds exactly 8*len(v) bytes. Four elements a step let the compiler
// drop the per-element bounds checks: on the 600 KB rank vector that
// halves the loop's time.
func putFloat64s(b []byte, v []float64) {
	for len(v) >= 4 && len(b) >= 32 {
		bb := b[:32]
		binary.LittleEndian.PutUint64(bb[0:], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(bb[8:], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(bb[16:], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(bb[24:], math.Float64bits(v[3]))
		v, b = v[4:], b[32:]
	}
	for _, x := range v {
		binary.LittleEndian.PutUint64(b, math.Float64bits(x))
		b = b[8:]
	}
}

// getFloat64s is putFloat64s's inverse: it fills dst from the
// 8*len(dst) bytes of b.
func getFloat64s(dst []float64, b []byte) {
	for len(dst) >= 4 && len(b) >= 32 {
		bb, d := b[:32], dst[:4]
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(bb[0:]))
		d[1] = math.Float64frombits(binary.LittleEndian.Uint64(bb[8:]))
		d[2] = math.Float64frombits(binary.LittleEndian.Uint64(bb[16:]))
		d[3] = math.Float64frombits(binary.LittleEndian.Uint64(bb[24:]))
		dst, b = dst[4:], b[32:]
	}
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
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

// Encode writes k, the element count, then each element's ID and
// score bits, little-endian, in heap order.
func (t *TopK) Encode(w io.Writer) error {
	return writeElems(w, []uint64{uint64(t.K), uint64(len(t.Heap))}, len(t.Heap), 16, func(b []byte, from int) {
		for _, e := range t.Heap[from : from+len(b)/16] {
			binary.LittleEndian.PutUint64(b, uint64(e.ID))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(e.Score))
			b = b[16:]
		}
	})
}

// Decode restores the selector into the heap storage t already holds
// when it is large enough, growing it only as elements arrive
// otherwise.
func (t *TopK) Decode(r io.Reader) error {
	f := fieldReader{r: r}
	k, n := f.length("TopK k"), f.length("TopK size")
	if f.err != nil {
		return f.err
	}
	if n > k {
		return fmt.Errorf("gr: bad TopK header k=%d n=%d", k, n)
	}
	t.K = k
	var err error
	t.Heap, err = readElems(r, t.Heap, n, 16, func(dst []Scored, b []byte) {
		for j := range dst {
			dst[j] = Scored{
				ID:    int64(binary.LittleEndian.Uint64(b)),
				Score: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			}
			b = b[16:]
		}
	})
	return err
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

// EncodeInt64s writes v in VectorSum's layout: the length, then each
// element, little-endian (kmeans' per-cluster counts).
func EncodeInt64s(w io.Writer, v []int64) error {
	return writeElems(w, []uint64{uint64(len(v))}, len(v), 8, func(b []byte, from int) {
		for _, x := range v[from : from+len(b)/8] {
			binary.LittleEndian.PutUint64(b, uint64(x))
			b = b[8:]
		}
	})
}

// DecodeInt64s reads EncodeInt64s's output into dst's storage when it
// is large enough, growing it only as elements arrive otherwise, and
// returns the decoded vector.
func DecodeInt64s(r io.Reader, dst []int64) ([]int64, error) {
	f := fieldReader{r: r}
	n := f.length("int64 vector length")
	if f.err != nil {
		return nil, f.err
	}
	return readElems(r, dst, n, 8, func(out []int64, b []byte) {
		for j := range out {
			out[j] = int64(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	})
}

// codecScratch caps the one buffer a fixed-layout codec (VectorSum,
// TopK, EncodeInt64s) streams an object through: large enough to
// amortize the Write and Read calls, small enough to stay in cache,
// and sized down to the object when that is smaller.
const codecScratch = 32 << 10

// writeElems writes the header words, then n elements of size bytes
// each, to w through one scratch buffer. put encodes elements from,
// from+1, ... into b, which holds a whole number of them.
func writeElems(w io.Writer, header []uint64, n, size int, put func(b []byte, from int)) error {
	buf := make([]byte, min(8*len(header)+n*size, codecScratch))
	off := 0
	for _, h := range header {
		binary.LittleEndian.PutUint64(buf[off:], h)
		off += 8
	}
	for from := 0; ; off = 0 {
		m := min(n-from, (len(buf)-off)/size)
		put(buf[off:off+m*size], from)
		if _, err := w.Write(buf[:off+m*size]); err != nil {
			return err
		}
		if from += m; from == n {
			return nil
		}
	}
}

// readElems decodes n elements of size bytes each from r, reading no
// byte further, into v's storage: it returns v resized to n, every
// element overwritten. The bytes pass through one scratch buffer; get
// decodes each batch b into dst, the batch's elements. v grows past
// its capacity only by the batch just read, so a corrupt count fails
// at EOF instead of allocating for elements that never arrive.
func readElems[T any](r io.Reader, v []T, n, size int, get func(dst []T, b []byte)) ([]T, error) {
	buf := make([]byte, min(n*size, codecScratch))
	for v = v[:0]; len(v) < n; {
		m := min(n-len(v), len(buf)/size)
		if _, err := io.ReadFull(r, buf[:m*size]); err != nil {
			return v, err
		}
		v = slices.Grow(v, m)[:len(v)+m]
		get(v[len(v)-m:], buf[:m*size])
	}
	return v, nil
}

// appendField appends f to b, prefixed with its length.
func appendField[T string | []byte](b []byte, f T) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(f))), f...)
}

// maxFieldLen bounds a decoded count or length prefix; anything larger
// is corrupt input.
const maxFieldLen = 1 << 30

// fieldReader decodes the little-endian count- and length-prefixed
// fields of the combiner encodings. The first error sticks:
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
