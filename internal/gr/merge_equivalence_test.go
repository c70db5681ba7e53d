package gr_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cloudburst/internal/bench" // registers every application
	"cloudburst/internal/gr"
	"cloudburst/internal/workload"
)

// mergeTestParams shrinks each registered application to test scale.
//
// The pagerank parameters make its floating-point sums exactly
// associative, so digest equality across merge orders is a true
// invariant rather than a lucky one: with 2^15 pages, uniform
// out-degree 4, and damping 1, every edge contributes exactly 2^-17
// to its target element, and sums of dyadic rationals this small are
// exact in float64. (With arbitrary degrees the true element sums sit
// arbitrarily close to the digest's rounding boundaries, where
// single-ulp reorder noise can legitimately flip the last printed
// digit.) The other applications are exact as-is: wordcount counts
// integers, and knn/kmeans fold values derived from 24-bit-mantissa
// workload floats whose sums stay well inside float64 exactness.
var mergeTestParams = map[string]map[string]string{
	"pagerank":  {"pages": "32768", "mindeg": "4", "maxdeg": "4", "damping": "1"},
	"knn":       {"k": "16", "dims": "3"},
	"kmeans":    {"k": "8", "dims": "3"},
	"wordcount": {"width": "12"},
}

// buildEncodedObjects locally reduces total records split into n
// contiguous spans — one reduction object per span, as if n workers
// each processed a slice — and returns each object encoded, so every
// merge-strategy trial can decode its own fresh, mutation-safe copies.
func buildEncodedObjects(t *testing.T, app gr.App, gen workload.Generator, total int64, n int) [][]byte {
	t.Helper()
	rs := gen.RecordSize()
	if rs != app.RecordSize() {
		t.Fatalf("record size mismatch: generator %d, app %d", rs, app.RecordSize())
	}
	encoded := make([][]byte, 0, n)
	rec := make([]byte, rs)
	for w := 0; w < n; w++ {
		lo := total * int64(w) / int64(n)
		hi := total * int64(w+1) / int64(n)
		red := app.NewReduction()
		for i := lo; i < hi; i++ {
			gen.Gen(i, rec)
			if err := red.Update(rec); err != nil {
				t.Fatalf("update record %d: %v", i, err)
			}
		}
		enc, err := gr.EncodeReduction(red)
		if err != nil {
			t.Fatalf("encode object %d: %v", w, err)
		}
		encoded = append(encoded, enc)
	}
	return encoded
}

// decodeObjects materializes fresh reduction objects in the given
// order (indices into encoded).
func decodeObjects(t *testing.T, app gr.App, encoded [][]byte, order []int) []gr.Reduction {
	t.Helper()
	objs := make([]gr.Reduction, 0, len(order))
	for _, i := range order {
		o, err := gr.DecodeReduction(app, encoded[i])
		if err != nil {
			t.Fatalf("decode object %d: %v", i, err)
		}
		objs = append(objs, o)
	}
	return objs
}

func digestOf(t *testing.T, app gr.App, red gr.Reduction) string {
	t.Helper()
	s, ok := app.(gr.Summarizer)
	if !ok {
		t.Fatalf("app %s does not implement Summarizer", app.Name())
	}
	d, err := s.Summarize(red)
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	return d
}

// TestMergeStrategiesRandomOrderEquivalence is the gr contract check
// behind the sync-mode ablation: for every registered application, the
// serial fold and the worker-pool pair-merge tree must produce the same
// result digest regardless of the order objects arrive in — merge strategy and arrival order are scheduling
// choices, never semantic ones.
func TestMergeStrategiesRandomOrderEquivalence(t *testing.T) {
	const (
		nObjects = 8
		nRecords = 8000
		trials   = 3
	)
	strategies := []struct {
		name  string
		merge func(app gr.App, objs []gr.Reduction) (gr.Reduction, error)
	}{
		{"serial", func(app gr.App, objs []gr.Reduction) (gr.Reduction, error) {
			return gr.MergeAll(app, objs)
		}},
		{"parallel", func(app gr.App, objs []gr.Reduction) (gr.Reduction, error) {
			return gr.MergeAllParallel(app, objs, 4)
		}},
	}

	for _, name := range gr.Apps() {
		t.Run(name, func(t *testing.T) {
			app, err := gr.New(name, mergeTestParams[name])
			if err != nil {
				t.Fatal(err)
			}
			gen, total, err := bench.GeneratorFor(app, nRecords)
			if err != nil {
				// Other test files register fixture apps in the shared
				// registry; only real applications have workloads.
				t.Skipf("no workload generator for %q: %v", name, err)
			}
			encoded := buildEncodedObjects(t, app, gen, total, nObjects)

			order := make([]int, nObjects)
			for i := range order {
				order[i] = i
			}
			base, err := gr.MergeAll(app, decodeObjects(t, app, encoded, order))
			if err != nil {
				t.Fatal(err)
			}
			want := digestOf(t, app, base)

			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)*7919 + 1))
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				for _, s := range strategies {
					got, err := s.merge(app, decodeObjects(t, app, encoded, order))
					if err != nil {
						t.Fatalf("trial %d %s: %v", trial, s.name, err)
					}
					if d := digestOf(t, app, got); d != want {
						t.Fatalf("trial %d %s: digest %s, want %s (order %v)", trial, s.name, d, want, order)
					}
				}
			}
		})
	}
}

// TestMergerConcurrentAddEquivalence models the cluster receive path:
// one Add per connection-handler goroutine, all concurrent, under
// every merge mode. Digests must match the serial baseline, and the
// run must be race-clean (the serial mode folds into one shared
// accumulator behind the merger's fold mutex).
func TestMergerConcurrentAddEquivalence(t *testing.T) {
	const (
		nObjects = 12
		nRecords = 6000
	)
	for _, name := range gr.Apps() {
		t.Run(name, func(t *testing.T) {
			app, err := gr.New(name, mergeTestParams[name])
			if err != nil {
				t.Fatal(err)
			}
			gen, total, err := bench.GeneratorFor(app, nRecords)
			if err != nil {
				t.Skipf("no workload generator for %q: %v", name, err)
			}
			encoded := buildEncodedObjects(t, app, gen, total, nObjects)
			order := make([]int, nObjects)
			for i := range order {
				order[i] = i
			}
			base, err := gr.MergeAll(app, decodeObjects(t, app, encoded, order))
			if err != nil {
				t.Fatal(err)
			}
			want := digestOf(t, app, base)

			for _, mode := range []gr.MergeMode{gr.MergeSerial, gr.MergeParallel} {
				t.Run(fmt.Sprint(mode), func(t *testing.T) {
					m := gr.NewMerger(app, gr.MergerOptions{Mode: mode, Workers: 4})
					objs := decodeObjects(t, app, encoded, order)
					var wg sync.WaitGroup
					for _, o := range objs {
						wg.Add(1)
						go func(o gr.Reduction) {
							defer wg.Done()
							if err := m.Add(o); err != nil {
								t.Errorf("add: %v", err)
							}
						}(o)
					}
					wg.Wait()
					got, stats, err := m.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if stats.Merges == 0 {
						t.Fatal("merger reported zero merges")
					}
					if d := digestOf(t, app, got); d != want {
						t.Fatalf("mode %v: digest %s, want %s", mode, d, want)
					}
				})
			}
		})
	}
}

// TestMergerFoldAfterFinishEquivalence is the exchange's contract: the
// merge of all objects but one (Finish), folded into the held-back one
// (Fold), equals the plain merge of everything, under every mode — and
// Fold only reads its source, so the source may be encoded (streamed to
// a peer) while the fold runs; the race detector checks that.
func TestMergerFoldAfterFinishEquivalence(t *testing.T) {
	const (
		nObjects = 5
		nRecords = 4000
	)
	for _, name := range gr.Apps() {
		t.Run(name, func(t *testing.T) {
			app, err := gr.New(name, mergeTestParams[name])
			if err != nil {
				t.Fatal(err)
			}
			gen, total, err := bench.GeneratorFor(app, nRecords)
			if err != nil {
				t.Skipf("no workload generator for %q: %v", name, err)
			}
			encoded := buildEncodedObjects(t, app, gen, total, nObjects)
			order := make([]int, nObjects)
			for i := range order {
				order[i] = i
			}
			base, err := gr.MergeAll(app, decodeObjects(t, app, encoded, order))
			if err != nil {
				t.Fatal(err)
			}
			want := digestOf(t, app, base)

			for _, mode := range []gr.MergeMode{gr.MergeSerial, gr.MergeParallel} {
				t.Run(fmt.Sprint(mode), func(t *testing.T) {
					m := gr.NewMerger(app, gr.MergerOptions{Mode: mode, Workers: 4})
					objs := decodeObjects(t, app, encoded, order)
					last := objs[nObjects-1]
					for _, o := range objs[:nObjects-1] {
						if err := m.Add(o); err != nil {
							t.Fatal(err)
						}
					}
					partial, before, err := m.Finish()
					if err != nil {
						t.Fatal(err)
					}
					encodeDone := make(chan error, 1)
					go func() {
						_, err := gr.EncodeReduction(partial)
						encodeDone <- err
					}()
					if err := m.Fold(last, partial); err != nil {
						t.Fatal(err)
					}
					if err := <-encodeDone; err != nil {
						t.Fatal(err)
					}
					if got := m.Stats().Merges; got != before.Merges+1 {
						t.Fatalf("fold counted %d merges, want %d", got, before.Merges+1)
					}
					if d := digestOf(t, app, last); d != want {
						t.Fatalf("mode %v: digest %s, want %s", mode, d, want)
					}
				})
			}
		})
	}
}
