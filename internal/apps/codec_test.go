package apps

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"cloudburst/internal/gr"
)

// TestKMeansEncodingPinned pins the exact bytes of a small kmeans
// object (coordinate sums, then counts): objects cross the wire and
// feed the checkpoint dedup hash, so the codec must reproduce them bit
// for bit.
func TestKMeansEncodingPinned(t *testing.T) {
	app, err := NewKMeans(Params{"k": "3", "dims": "2", "cseed": "5"})
	if err != nil {
		t.Fatal(err)
	}
	red := app.NewReduction()
	for _, p := range [][2]float32{{0.1, 0.9}, {0.8, 0.2}, {0.5, 0.5}, {-3, 7.25}} {
		rec := binary.LittleEndian.AppendUint32(nil, math.Float32bits(p[0]))
		rec = binary.LittleEndian.AppendUint32(rec, math.Float32bits(p[1]))
		if err := red.Update(rec); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := gr.EncodeReduction(red)
	if err != nil {
		t.Fatal(err)
	}
	const want = "0600000000000000000000a09999e93f000000a09999c93f0000000000000000000000000000000000000033333303c0000000cccc4c21400300000000000000010000000000000000000000000000000300000000000000"
	if got := hex.EncodeToString(enc); got != want {
		t.Fatalf("kmeans encodes as\n%s\nwant\n%s", got, want)
	}
}

// fuzzApps are the registered applications at sizes small enough to
// decode thousands of inputs a second.
var fuzzApps = []struct {
	name   string
	params map[string]string
}{
	{"knn", map[string]string{"k": "8", "dims": "2"}},
	{"kmeans", map[string]string{"k": "3", "dims": "2"}},
	{"pagerank", map[string]string{"pages": "64", "mindeg": "1", "maxdeg": "4"}},
	{"wordcount", nil},
}

// FuzzReductionDecode feeds arbitrary bytes to every registered app's
// reduction decoder through gr.DecodeReduction, the path objects take
// off the wire and out of checkpoints. Corrupt input must error, never
// panic; accepted input must round-trip stably (encode, decode, encode
// gives identical bytes). A receiver also decodes into spares, objects
// its merger already absorbed (gr.Merger.Spare), so every input is
// decoded a second time into an object full of another reduction's
// state, and must give the same bytes or the same error.
func FuzzReductionDecode(f *testing.F) {
	registered := make([]gr.App, len(fuzzApps))
	dirty := make([]func() gr.Reduction, len(fuzzApps))
	for i, a := range fuzzApps {
		app, err := gr.New(a.name, a.params)
		if err != nil {
			f.Fatal(err)
		}
		registered[i] = app
		red := app.NewReduction()
		var units []byte
		for u := range 40 {
			rec := make([]byte, app.RecordSize())
			for j := range rec {
				rec[j] = byte(u*31 + j*7)
			}
			if a.name == "pagerank" {
				binary.LittleEndian.PutUint32(rec[0:], uint32(u%64))
				binary.LittleEndian.PutUint32(rec[4:], uint32(u*5%64))
			}
			units = append(units, rec...)
		}
		if _, err := gr.NewEngine(app, gr.EngineOptions{}).ProcessChunk(red, units); err != nil {
			f.Fatal(err)
		}
		dirty[i] = func() gr.Reduction {
			spare := app.NewReduction()
			if _, err := gr.NewEngine(app, gr.EngineOptions{}).ProcessChunk(spare, units); err != nil {
				f.Fatal(err)
			}
			return spare
		}
		for _, obj := range []gr.Reduction{red, app.NewReduction()} {
			enc, err := gr.EncodeReduction(obj)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for i, app := range registered {
			red, err := gr.DecodeReduction(app, data)
			spare := dirty[i]()
			spareErr := spare.Decode(bytes.NewReader(data))
			if fmt.Sprint(err) != fmt.Sprint(spareErr) {
				t.Fatalf("%s: decode into a fresh object: %v; into a spare: %v", app.Name(), err, spareErr)
			}
			if err != nil {
				continue
			}
			first, err := gr.EncodeReduction(red)
			if err != nil {
				t.Fatalf("%s: encode of a decoded object: %v", app.Name(), err)
			}
			fromSpare, err := gr.EncodeReduction(spare)
			if err != nil {
				t.Fatalf("%s: encode of a spare-decoded object: %v", app.Name(), err)
			}
			if !bytes.Equal(first, fromSpare) {
				t.Fatalf("%s: a spare decodes to\n%x\nwant\n%x", app.Name(), fromSpare, first)
			}
			again, err := gr.DecodeReduction(app, first)
			if err != nil {
				t.Fatalf("%s: re-encoded object failed to decode: %v", app.Name(), err)
			}
			second, err := gr.EncodeReduction(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("%s: round trip not stable:\n%x\n%x", app.Name(), first, second)
			}
		}
	})
}
