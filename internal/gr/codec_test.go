package gr

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"runtime"
	"testing"
)

// encodeHex encodes obj and returns its bytes in hex.
func encodeHex(t *testing.T, obj interface{ Encode(io.Writer) error }) string {
	t.Helper()
	var b bytes.Buffer
	if err := obj.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(b.Bytes())
}

// TestCombinerEncodingsPinned pins the exact bytes of small VectorSum
// and TopK objects. Encoded objects cross the wire between sites and
// feed the checkpoint dedup hash, so a codec rewrite must reproduce
// them bit for bit (NaN payloads and negative zero included).
func TestCombinerEncodingsPinned(t *testing.T) {
	vs := &VectorSum{V: []float64{1.5, -2, 0, math.Copysign(0, -1), math.Inf(1), 3e-300, math.Float64frombits(0x7ff8000000000001)}}
	tk := NewTopK(4)
	for i, s := range []float64{9.25, 0.5, -1, 7, 3} {
		tk.Consider(Scored{ID: int64(i*1000 - 2), Score: s})
	}
	for _, c := range []struct {
		name string
		obj  interface{ Encode(io.Writer) error }
		want string
	}{
		{"vectorsum", vs, "0700000000000000000000000000f83f00000000000000c000000000000000000000000000000080000000000000f07f83b63ad29712c001010000000000f87f"},
		{"vectorsum-empty", &VectorSum{}, "0000000000000000"},
		{"topk", tk, "04000000000000000400000000000000b60b0000000000000000000000001c409e0f0000000000000000000000000840ce07000000000000000000000000f0bfe603000000000000000000000000e03f"},
		{"topk-empty", NewTopK(3), "03000000000000000000000000000000"},
	} {
		if got := encodeHex(t, c.obj); got != c.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}

// allocDuring reports the bytes fn allocated.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeAllocatesOnlyFromArrivedBytes feeds each fixed-layout
// decoder a header that claims 1<<30 elements followed by 16 bytes:
// the decode must fail at EOF having allocated no more than what
// arrived, not the 8-16 GiB the header asks for.
func TestDecodeAllocatesOnlyFromArrivedBytes(t *testing.T) {
	const claim = 1 << 30
	body := make([]byte, 16)
	vec := binary.LittleEndian.AppendUint64(nil, claim)
	topk := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, claim), claim)
	for _, c := range []struct {
		name   string
		header []byte
		obj    interface{ Decode(io.Reader) error }
	}{
		{"vectorsum", vec, &VectorSum{}},
		{"topk", topk, &TopK{}},
		{"int64s", vec, int64sDecoder{}},
	} {
		var err error
		n := allocDuring(func() {
			err = c.obj.Decode(io.MultiReader(bytes.NewReader(c.header), bytes.NewReader(body)))
		})
		if err == nil {
			t.Errorf("%s: truncated object decoded", c.name)
		}
		if n > 1<<20 {
			t.Errorf("%s: decode of 16 arrived bytes allocated %d bytes", c.name, n)
		}
	}
}

// TestDecodeReusesStorage checks that Decode fills storage the
// receiver already holds (what NewReduction allocated) and overwrites
// all of it, and that a length change still yields exactly the
// encoded object.
func TestDecodeReusesStorage(t *testing.T) {
	src := NewVectorSum(3000)
	for i := range src.V {
		src.V[i] = float64(i) / 7
	}
	var enc bytes.Buffer
	if err := src.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	dst := NewVectorSum(3000)
	for i := range dst.V {
		dst.V[i] = -1
	}
	backing := &dst.V[0]
	if err := dst.Decode(bytes.NewReader(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if &dst.V[0] != backing {
		t.Error("VectorSum.Decode replaced storage of the right size")
	}
	if !slicesEqualBits(dst.V, src.V) {
		t.Error("VectorSum.Decode left stale elements")
	}
	for _, size := range []int{0, 10, 5000} {
		other := NewVectorSum(size)
		if err := other.Decode(bytes.NewReader(enc.Bytes())); err != nil {
			t.Fatal(err)
		}
		if !slicesEqualBits(other.V, src.V) {
			t.Errorf("decode into a %d-element vector: got %d elements", size, len(other.V))
		}
	}

	tk := NewTopK(100)
	for i := range 250 {
		tk.Consider(Scored{ID: int64(i), Score: float64((i * 37) % 101)})
	}
	var tenc bytes.Buffer
	if err := tk.Encode(&tenc); err != nil {
		t.Fatal(err)
	}
	into := NewTopK(100)
	into.Consider(Scored{ID: -5, Score: -5})
	heap := &into.Heap[:1][0]
	if err := into.Decode(bytes.NewReader(tenc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if &into.Heap[0] != heap {
		t.Error("TopK.Decode replaced storage of the right capacity")
	}
	if encodeHex(t, into) != hex.EncodeToString(tenc.Bytes()) {
		t.Error("TopK decoded in place does not re-encode to the same bytes")
	}
}

// int64sDecoder adapts DecodeInt64s to the Decode shape.
type int64sDecoder struct{}

func (int64sDecoder) Decode(r io.Reader) error {
	_, err := DecodeInt64s(r, nil)
	return err
}

func slicesEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
