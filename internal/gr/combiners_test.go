package gr

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestVectorSum(t *testing.T) {
	s := NewVectorSum(3)
	if err := s.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.V, []float64{11, 22, 33}) {
		t.Fatalf("V = %v", s.V)
	}
	if err := s.Add([]float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	o := NewVectorSum(3)
	o.Add([]float64{1, 1, 1})
	if err := s.Merge(o); err != nil {
		t.Fatal(err)
	}
	if s.V[0] != 12 {
		t.Fatalf("merged V = %v", s.V)
	}
	if s.Bytes() != 24 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
}

func TestVectorSumCodec(t *testing.T) {
	s := NewVectorSum(5)
	s.Add([]float64{1.5, -2, 3e10, 0, 42})
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got := &VectorSum{}
	if err := got.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.V, s.V) {
		t.Fatalf("codec mismatch: %v", got.V)
	}
	if err := got.Decode(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("truncated decode accepted")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("a", 1)
	c.Inc("b", 2)
	c.Inc("a", 3)
	o := NewCounter()
	o.Inc("a", 10)
	o.Inc("c", 1)
	if err := c.Merge(o); err != nil {
		t.Fatal(err)
	}
	if c.Counts["a"] != 14 || c.Counts["b"] != 2 || c.Counts["c"] != 1 {
		t.Fatalf("counts = %v", c.Counts)
	}
	top := c.Top(2)
	if len(top) != 2 || top[0] != "a" || top[1] != "b" {
		t.Fatalf("top = %v", top)
	}
	if c.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
}

func TestCounterCodec(t *testing.T) {
	c := NewCounter()
	c.Inc("hello", 7)
	c.Inc("world", 3)
	c.Inc("", -1)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := append([]byte(nil), buf.Bytes()...)
	got := NewCounter()
	if err := got.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, c.Counts) {
		t.Fatalf("codec mismatch: %v", got.Counts)
	}

	// Equal counters encode to equal bytes whatever their insertion
	// order: keys go out sorted.
	r := NewCounter()
	r.Inc("world", 3)
	r.Inc("", -1)
	r.Inc("hello", 7)
	var rbuf bytes.Buffer
	if err := r.Encode(&rbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rbuf.Bytes(), enc) {
		t.Fatal("encoding depends on insertion order")
	}

	for i := 0; i < len(enc); i++ {
		if err := NewCounter().Decode(bytes.NewReader(enc[:i])); err == nil {
			t.Fatalf("truncated to %d of %d bytes: decoded", i, len(enc))
		}
	}
	for name, b := range overLongFields(t, enc, "") {
		if err := NewCounter().Decode(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
}

// overLongFields corrupts enc, an encoding whose count prefix is
// followed by a length-prefixed field holding first, into inputs the
// decoders must reject: negative and implausible counts and lengths,
// and a length that runs past the end of the input.
func overLongFields(t *testing.T, enc []byte, first string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	set := func(name string, off int, v int64) {
		b := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(b[off:], uint64(v))
		out[name] = b
	}
	// The first field's length prefix sits right after the count.
	if got := binary.LittleEndian.Uint64(enc[8:]); got != uint64(len(first)) {
		t.Fatalf("first field length %d, want %d", got, len(first))
	}
	set("negative count", 0, -1)
	set("implausible count", 0, maxFieldLen+1)
	set("count past the end", 0, maxFieldLen)
	set("negative length", 8, -1)
	set("implausible length", 8, maxFieldLen+1)
	set("length past the end", 8, int64(len(enc)))
	set("long length past the end", 8, 1<<20)
	return out
}

func TestTopKKeepsLowestScores(t *testing.T) {
	tk := NewTopK(3)
	for i, s := range []float64{5, 1, 9, 3, 7, 2} {
		tk.Consider(Scored{ID: int64(i), Score: s})
	}
	got := tk.Sorted()
	if len(got) != 3 {
		t.Fatalf("kept %d", len(got))
	}
	if got[0].Score != 1 || got[1].Score != 2 || got[2].Score != 3 {
		t.Fatalf("sorted = %v", got)
	}
	if w, ok := tk.Worst(); !ok || w != 3 {
		t.Fatalf("worst = %v, %v", w, ok)
	}
}

func TestTopKMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, all := NewTopK(10), NewTopK(10), NewTopK(10)
	for i := 0; i < 200; i++ {
		e := Scored{ID: int64(i), Score: rng.Float64()}
		all.Consider(e)
		if i%2 == 0 {
			a.Consider(e)
		} else {
			b.Consider(e)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Sorted(), all.Sorted()) {
		t.Fatal("merge != union")
	}
}

func TestTopKCodec(t *testing.T) {
	tk := NewTopK(4)
	for i := 0; i < 10; i++ {
		tk.Consider(Scored{ID: int64(i), Score: float64(10 - i)})
	}
	var buf bytes.Buffer
	if err := tk.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got := &TopK{}
	if err := got.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sorted(), tk.Sorted()) {
		t.Fatal("codec mismatch")
	}
	if got.Bytes() != 16*4 {
		t.Fatalf("Bytes = %d", got.Bytes())
	}
}

func TestTopKZeroCapacity(t *testing.T) {
	tk := NewTopK(0)
	tk.Consider(Scored{ID: 1, Score: 1})
	if len(tk.Heap) != 0 {
		t.Fatal("zero-capacity TopK kept an element")
	}
}

// Property: TopK(k) over any input equals sorting and truncating.
func TestTopKProperty(t *testing.T) {
	f := func(scores []float64, k uint8) bool {
		kk := int(k%20) + 1
		tk := NewTopK(kk)
		for i, s := range scores {
			tk.Consider(Scored{ID: int64(i), Score: s})
		}
		want := make([]Scored, 0, len(scores))
		for i, s := range scores {
			want = append(want, Scored{ID: int64(i), Score: s})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score < want[j].Score
			}
			return want[i].ID < want[j].ID
		})
		if len(want) > kk {
			want = want[:kk]
		}
		got := tk.Sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	var c Concat
	c.Append([]byte("one"))
	c.Append([]byte("two"))
	var o Concat
	o.Append([]byte("three"))
	if err := c.Merge(&o); err != nil {
		t.Fatal(err)
	}
	if len(c.Items) != 3 || string(c.Items[2]) != "three" {
		t.Fatalf("items = %q", c.Items)
	}
	if c.Bytes() != 11 {
		t.Fatalf("Bytes = %d", c.Bytes())
	}
	c.Append(nil)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := append([]byte(nil), buf.Bytes()...)
	var got Concat
	if err := got.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Items, c.Items) {
		t.Fatalf("codec mismatch: %q", got.Items)
	}

	for i := 0; i < len(enc); i++ {
		if err := new(Concat).Decode(bytes.NewReader(enc[:i])); err == nil {
			t.Fatalf("truncated to %d of %d bytes: decoded", i, len(enc))
		}
	}
	for name, b := range overLongFields(t, enc, "one") {
		if err := new(Concat).Decode(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
	var empty Concat
	buf.Reset()
	if err := empty.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := got.Decode(&buf); err != nil || len(got.Items) != 0 {
		t.Fatalf("empty concat decoded to %q, %v", got.Items, err)
	}

	// An item longer than one 64 KiB read step.
	long := Concat{Items: [][]byte{bytes.Repeat([]byte{9}, 64<<10+1)}}
	buf.Reset()
	if err := long.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc = buf.Bytes()
	if err := got.Decode(bytes.NewReader(enc)); err != nil || !reflect.DeepEqual(got.Items, long.Items) {
		t.Fatalf("long item did not round-trip: %v", err)
	}
	if err := got.Decode(bytes.NewReader(enc[:len(enc)-1])); err == nil {
		t.Fatal("long item truncated by one byte: decoded")
	}
}

func TestConcatAppendCopies(t *testing.T) {
	var c Concat
	buf := []byte("mutable")
	c.Append(buf)
	buf[0] = 'X'
	if string(c.Items[0]) != "mutable" {
		t.Fatal("Append aliased the caller's buffer")
	}
}
