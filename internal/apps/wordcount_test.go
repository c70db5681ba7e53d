package apps

import (
	"testing"

	"cloudburst/internal/gr"
	"cloudburst/internal/workload"
)

func TestWordCountMatchesReference(t *testing.T) {
	app, err := NewWordCount(Params{"width": "12"})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Words{Width: 12, Vocab: 40, Seed: 17}
	const n = 4000
	data := genRecords(gen, n)

	e := gr.NewEngine(app, gr.EngineOptions{GroupUnits: 256})
	red := app.NewReduction()
	if _, err := e.ProcessChunk(red, data); err != nil {
		t.Fatal(err)
	}
	got := red.(*wordCountRed).Counts()

	want := make(map[string]int64)
	for i := int64(0); i < n; i++ {
		want[gen.Word(gen.WordAt(i))]++
	}
	if len(got) != len(want) {
		t.Fatalf("distinct words %d != %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Fatalf("word %q: %d != %d", w, got[w], c)
		}
	}
}

func TestWordCountMergeAndCodec(t *testing.T) {
	app, _ := NewWordCount(Params{"width": "12"})
	gen := workload.Words{Width: 12, Vocab: 10, Seed: 2}
	data := genRecords(gen, 1000)
	rs := app.RecordSize()

	e := gr.NewEngine(app, gr.EngineOptions{})
	a, b := app.NewReduction(), app.NewReduction()
	e.ProcessChunk(a, data[:500*rs])
	e.ProcessChunk(b, data[500*rs:])
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}

	enc, err := gr.EncodeReduction(a)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := gr.DecodeReduction(app, enc)
	if err != nil {
		t.Fatal(err)
	}
	gotA, gotDec := a.(*wordCountRed).Counts(), dec.(*wordCountRed).Counts()
	var total int64
	for w, c := range gotA {
		if gotDec[w] != c {
			t.Fatalf("codec count for %q differs", w)
		}
		total += c
	}
	if total != 1000 {
		t.Fatalf("total = %d", total)
	}
}

func TestWordCountEmptyRecordSkipped(t *testing.T) {
	app, _ := NewWordCount(Params{"width": "4"})
	red := app.NewReduction()
	if err := red.Update([]byte("    ")); err != nil {
		t.Fatal(err)
	}
	if len(red.(*wordCountRed).Counts()) != 0 {
		t.Fatal("blank record counted")
	}
}

func TestWordCountSummarizeAndParams(t *testing.T) {
	app, _ := NewWordCount(Params{})
	red := app.NewReduction()
	red.Update([]byte("hello       "))
	s, err := app.Summarize(red)
	if err != nil || s == "" {
		t.Fatalf("Summarize = %q, %v", s, err)
	}
	if _, err := NewWordCount(Params{"width": "0"}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewWordCount(Params{"width": "nan"}); err == nil {
		t.Fatal("bad width accepted")
	}
}

func TestAllAppsRegistered(t *testing.T) {
	for _, name := range []string{"knn", "kmeans", "pagerank", "wordcount"} {
		app, err := gr.New(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if app.Name() != name {
			t.Fatalf("%s reports name %q", name, app.Name())
		}
		if app.RecordSize() <= 0 {
			t.Fatalf("%s record size %d", name, app.RecordSize())
		}
		if _, ok := app.(gr.Summarizer); !ok {
			t.Fatalf("%s does not implement Summarizer", name)
		}
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{"i": "5", "f": "2.5", "d": "3s", "u": "9"}
	if v, err := p.Int("i", 0); err != nil || v != 5 {
		t.Fatalf("Int = %d, %v", v, err)
	}
	if v, err := p.Int("missing", 7); err != nil || v != 7 {
		t.Fatalf("Int default = %d, %v", v, err)
	}
	if v, err := p.Float("f", 0); err != nil || v != 2.5 {
		t.Fatalf("Float = %v, %v", v, err)
	}
	if v, err := p.Duration("d", 0); err != nil || v.Seconds() != 3 {
		t.Fatalf("Duration = %v, %v", v, err)
	}
	if v, err := p.Uint64("u", 0); err != nil || v != 9 {
		t.Fatalf("Uint64 = %v, %v", v, err)
	}
	if v, err := p.Int64("missing", -2); err != nil || v != -2 {
		t.Fatalf("Int64 default = %v, %v", v, err)
	}
	for _, bad := range []string{"i", "f", "d", "u"} {
		bp := Params{bad: "@@@"}
		var err error
		switch bad {
		case "i":
			_, err = bp.Int(bad, 0)
		case "f":
			_, err = bp.Float(bad, 0)
		case "d":
			_, err = bp.Duration(bad, 0)
		case "u":
			_, err = bp.Uint64(bad, 0)
		}
		if err == nil {
			t.Fatalf("bad %s accepted", bad)
		}
	}
}

// TestWordCountSummaryPinned pins the exact summary of a fixed input
// (the cbgen/cbbench wordcount vocabulary) reduced as eight objects,
// each round-tripped through the codec and then merged: word total,
// distinct count and the top three with their lexicographic tie-break.
// The integration test checks only the total, so this is the guard on
// the counter's codec, merge and Top.
func TestWordCountSummaryPinned(t *testing.T) {
	app, err := NewWordCount(Params{"width": "12"})
	if err != nil {
		t.Fatal(err)
	}
	const n, parts = 60000, 8
	data := genRecords(workload.Words{Width: 12, Vocab: 5000, Seed: 3003}, n)
	rs := app.RecordSize()
	e := gr.NewEngine(app, gr.EngineOptions{})
	objs := make([]gr.Reduction, 0, parts)
	for p := 0; p < parts; p++ {
		red := app.NewReduction()
		if _, err := e.ProcessChunk(red, data[p*n/parts*rs:(p+1)*n/parts*rs]); err != nil {
			t.Fatal(err)
		}
		enc, err := gr.EncodeReduction(red)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := gr.DecodeReduction(app, enc)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, dec)
	}
	merged, err := gr.MergeAll(app, objs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := app.Summarize(merged)
	if err != nil {
		t.Fatal(err)
	}
	const want = "wordcount: 60000 words, 4782 distinct, top=[w000333 w000415 w000436]"
	if got != want {
		t.Fatalf("summary %q, want %q", got, want)
	}
}
