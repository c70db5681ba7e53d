package gr

import (
	"fmt"
	"io"
	"testing"
	"time"
)

// Micro-benchmarks for the generalized reduction engine: raw local
// reduction throughput without pacing.

func benchEngine(b *testing.B, group int) {
	data, _ := sumData(100_000, 1)
	e := NewEngine(sumApp{}, EngineOptions{GroupUnits: group})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red := &sumRed{}
		if _, err := e.ProcessChunk(red, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessChunk measures unpaced local-reduction throughput at
// several cache-group sizes.
func BenchmarkProcessChunk(b *testing.B) {
	for _, group := range []int{64, 1024, 4096, 65536} {
		b.Run(fmt.Sprintf("group-%d", group), func(b *testing.B) {
			benchEngine(b, group)
		})
	}
}

// BenchmarkTopKConsider measures the knn reduction object's hot path.
func BenchmarkTopKConsider(b *testing.B) {
	tk := NewTopK(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk.Consider(Scored{ID: int64(i), Score: float64(i % 9973)})
	}
}

// BenchmarkVectorSumMerge measures the pagerank-style large-object
// global reduction.
func BenchmarkVectorSumMerge(b *testing.B) {
	const n = 75_000 // the calibrated pagerank rank vector
	a, o := NewVectorSum(n), NewVectorSum(n)
	for i := range o.V {
		o.V[i] = float64(i)
	}
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Merge(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReductionCodec measures a reduction object's round trip
// as the sync path runs it: EncodeReduction, then DecodeReductionFrom
// over a reader that hands the bytes over in wire-part-sized pieces
// (as the object stream's pipe does), into the object NewReduction
// allocates. Sizes: the calibrated pagerank rank vector (75 000
// elements), a kmeans-size vector (512) and a knn k=1000 TopK.
func BenchmarkReductionCodec(b *testing.B) {
	vec := func(n int) Reduction {
		s := NewVectorSum(n)
		for i := range s.V {
			s.V[i] = float64(i) / 3
		}
		return vecReduction{s}
	}
	tk := NewTopK(1000)
	for i := range 5000 {
		tk.Consider(Scored{ID: int64(i), Score: float64((i * 7919) % 10007)})
	}
	for _, c := range []struct {
		name string
		obj  Reduction
		app  App
	}{
		{"vector-75000", vec(75_000), codecApp{func() Reduction { return vecReduction{NewVectorSum(75_000)} }}},
		{"vector-512", vec(512), codecApp{func() Reduction { return vecReduction{NewVectorSum(512)} }}},
		{"topk-1000", topkReduction{tk}, codecApp{func() Reduction { return topkReduction{NewTopK(1000)} }}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc, err := EncodeReduction(c.obj)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(enc)))
				if _, err := DecodeReductionFrom(c.app, &partReader{data: enc, part: 256 << 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// partReader serves data at most part bytes per Read, the way the
// object stream's pipe hands a decoder one wire part at a time.
type partReader struct {
	data []byte
	part int
}

func (r *partReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data[:min(len(r.data), r.part)])
	r.data = r.data[n:]
	return n, nil
}

// codecApp adapts a reduction constructor for DecodeReductionFrom.
type codecApp struct{ newRed func() Reduction }

func (codecApp) Name() string              { return "codec" }
func (codecApp) RecordSize() int           { return 8 }
func (codecApp) UnitCost() time.Duration   { return 0 }
func (a codecApp) NewReduction() Reduction { return a.newRed() }

// vecReduction and topkReduction adapt the combiners for the codec
// benchmark.
type vecReduction struct{ *VectorSum }

func (v vecReduction) Update(unit []byte) error    { return nil }
func (v vecReduction) Merge(other Reduction) error { return nil }

type topkReduction struct{ *TopK }

func (t topkReduction) Update(unit []byte) error    { return nil }
func (t topkReduction) Merge(other Reduction) error { return nil }
