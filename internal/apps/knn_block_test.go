package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"cloudburst/internal/gr"
	"cloudburst/internal/workload"
)

// perUnit hides a reduction's UpdateBlock, so the engine runs the
// paper's per-element loop over it.
type perUnit struct{ gr.Reduction }

// knnReference folds data the way knn did before it had a kernel: one
// Distance and one TopK.Consider per record.
func knnReference(app *KNN, data []byte) *gr.TopK {
	rs := app.RecordSize()
	top := gr.NewTopK(app.K)
	for u := 0; u < len(data); u += rs {
		rec := data[u : u+rs]
		top.Consider(gr.Scored{ID: int64(binary.LittleEndian.Uint64(rec)), Score: app.Distance(rec)})
	}
	return top
}

// knnInputs returns named record buffers for dims-dimensional knn:
// distinct points, the same points repeated under fresh ids (every
// distance tied at least three ways, some ties straddling the worst
// kept score), and a handful of records (fewer than most K).
func knnInputs(dims int) map[string][]byte {
	gen := workload.Points{Dims: dims, Seed: uint64(17 + dims), WithID: true}
	rs := gen.RecordSize()
	distinct := genRecords(gen, 6000)
	var tied []byte
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 2000; i++ {
			rec := append([]byte(nil), distinct[i*rs:(i+1)*rs]...)
			binary.LittleEndian.PutUint64(rec, uint64(rep*2000+i))
			tied = append(tied, rec...)
		}
	}
	return map[string][]byte{"distinct": distinct, "tied": tied, "few": distinct[:5*rs]}
}

// TestKNNBlockKernelEquivalence: for every K, dimensionality, group
// size and input shape, the encoded reduction object after the block
// path is byte-identical to the per-unit path through the same engine
// and to the pre-kernel reference fold.
func TestKNNBlockKernelEquivalence(t *testing.T) {
	for _, k := range []int{1, 7, 1000} {
		for _, dims := range []int{1, 3, 8} {
			app, err := NewKNN(Params{"k": fmt.Sprint(k), "dims": fmt.Sprint(dims), "qseed": "9"})
			if err != nil {
				t.Fatal(err)
			}
			for name, data := range knnInputs(dims) {
				ref := knnReference(app, data)
				want, err := gr.EncodeReduction(&knnRed{app: app, top: ref})
				if err != nil {
					t.Fatal(err)
				}
				for _, group := range []int{1, 3, 4096} {
					e := gr.NewEngine(app, gr.EngineOptions{GroupUnits: group})
					encode := func(red gr.Reduction) []byte {
						t.Helper()
						units, err := e.ProcessChunk(red, data)
						if err != nil || units != len(data)/app.RecordSize() {
							t.Fatalf("ProcessChunk: units=%d err=%v", units, err)
						}
						enc, err := gr.EncodeReduction(red)
						if err != nil {
							t.Fatal(err)
						}
						return enc
					}
					block := encode(app.NewReduction())
					unit := encode(perUnit{app.NewReduction()})
					if !bytes.Equal(block, want) || !bytes.Equal(unit, want) {
						t.Fatalf("k=%d dims=%d %s group=%d: block==ref %v, per-unit==ref %v",
							k, dims, name, group, bytes.Equal(block, want), bytes.Equal(unit, want))
					}
				}
			}
		}
	}
}

// TestKNNKernelAfterDecode: a decoded object (a checkpoint adopted
// mid-run) keeps folding correctly, including the degenerate k=0
// header Decode accepts, which keeps nothing.
func TestKNNKernelAfterDecode(t *testing.T) {
	app, _ := NewKNN(Params{"k": "7", "dims": "3"})
	data := knnInputs(3)["distinct"]
	half := len(data) / 2 / app.RecordSize() * app.RecordSize()
	e := gr.NewEngine(app, gr.EngineOptions{})

	first := app.NewReduction()
	e.ProcessChunk(first, data[:half])
	enc, _ := gr.EncodeReduction(first)
	resumed, err := gr.DecodeReduction(app, enc)
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessChunk(resumed, data[half:])
	got, _ := gr.EncodeReduction(resumed)
	want, _ := gr.EncodeReduction(&knnRed{app: app, top: knnReference(app, data)})
	if !bytes.Equal(got, want) {
		t.Fatal("resumed object differs from a single pass")
	}

	empty, err := gr.DecodeReduction(app, make([]byte, 16)) // k=0, n=0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProcessChunk(empty, data); err != nil {
		t.Fatal(err)
	}
	if n := len(empty.(*knnRed).Neighbors()); n != 0 {
		t.Fatalf("k=0 object kept %d neighbours", n)
	}
}

// TestOnlyKNNHasBlockKernel: the other applications have no
// UpdateBlock, so the engine keeps them on the per-unit loop — checked
// against a hand-rolled Update loop over the same records.
func TestOnlyKNNHasBlockKernel(t *testing.T) {
	knn, _ := NewKNN(Params{})
	if _, ok := knn.NewReduction().(gr.BlockReducer); !ok {
		t.Fatal("knn lost its block kernel")
	}
	km, _ := NewKMeans(Params{"k": "8", "dims": "3"})
	pr, _ := NewPageRank(Params{"pages": "200", "mindeg": "2", "maxdeg": "6"})
	wc := mustWC(t)
	for _, c := range []struct {
		app  gr.App
		data []byte
	}{
		{km, genRecords(workload.Points{Dims: 3, Seed: 2}, 1000)},
		{pr, genRecords(pr.Graph, pr.Graph.TotalEdges())},
		{wc, genRecords(workload.Words{Vocab: 50, Width: wc.RecordSize(), Seed: 3}, 1000)},
	} {
		red := c.app.NewReduction()
		if _, ok := red.(gr.BlockReducer); ok {
			t.Fatalf("%s unexpectedly implements BlockReducer", c.app.Name())
		}
		if _, err := gr.NewEngine(c.app, gr.EngineOptions{GroupUnits: 64}).ProcessChunk(red, c.data); err != nil {
			t.Fatal(err)
		}
		want := c.app.NewReduction()
		rs := c.app.RecordSize()
		for u := 0; u < len(c.data); u += rs {
			if err := want.Update(c.data[u : u+rs]); err != nil {
				t.Fatal(err)
			}
		}
		same := false
		if w, ok := want.(*wordCountRed); ok { // encodes in map order
			same = reflect.DeepEqual(red.(*wordCountRed).Counts(), w.Counts())
		} else {
			got, _ := gr.EncodeReduction(red)
			exp, _ := gr.EncodeReduction(want)
			same = bytes.Equal(got, exp)
		}
		if !same {
			t.Fatalf("%s: engine result differs from a plain Update loop", c.app.Name())
		}
	}
}

// BenchmarkKNNProcessChunk: the engine's local reduction over a
// benchmark-sized chunk (10,000 records of the hostpath-knn shape) with
// a warm, full heap — the steady state of a run.
func BenchmarkKNNProcessChunk(b *testing.B) {
	app, err := NewKNN(Params{"k": "1000", "dims": "3", "cost": "0s"})
	if err != nil {
		b.Fatal(err)
	}
	data := genRecords(workload.Points{Dims: 3, Seed: 11, WithID: true}, 10_000)
	e := gr.NewEngine(app, gr.EngineOptions{GroupUnits: 4096})
	for _, c := range []struct {
		name string
		red  gr.Reduction
	}{{"block", app.NewReduction()}, {"per-unit", perUnit{app.NewReduction()}}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.ProcessChunk(c.red, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
