package bench

import (
	"strings"
	"testing"
)

func TestOverlapSinglePassGrid(t *testing.T) {
	tab, err := Overlap(tinySpec(), tinySim(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || tab.Env != "env-cloud" || tab.Iterations != 1 {
		t.Fatalf("table = %+v", tab)
	}
	if !tab.Match {
		t.Fatalf("variants diverged: %+v", tab.Rows)
	}
	for _, r := range tab.Rows {
		if !strings.Contains(r.Digest, "20000 words") {
			t.Fatalf("%s computed wrong result: %q", r.Label, r.Digest)
		}
		prefetch, cache := strings.Contains(r.Label, "prefetch"), strings.Contains(r.Label, "cache")
		if prefetch && r.Retrieval.PrefetchedJobs == 0 && r.Retrieval.PrefetchSkips == 0 {
			t.Fatalf("%s recorded no pipeline activity: %+v", r.Label, r.Retrieval)
		}
		if !prefetch && r.Retrieval.PrefetchedJobs != 0 {
			t.Fatalf("%s prefetched without the pipeline: %+v", r.Label, r.Retrieval)
		}
		if cache && r.Retrieval.CacheMisses == 0 {
			t.Fatalf("%s cache saw no traffic: %+v", r.Label, r.Retrieval)
		}
	}
}

func TestOverlapPageRankWarmsCache(t *testing.T) {
	spec := AppSpec{
		Name:   "pagerank",
		Params: map[string]string{"pages": "400", "mindeg": "2", "maxdeg": "4", "cost": "0s"},
		Files:  4, Jobs: 16,
	}
	tab, err := Overlap(spec, tinySim(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Match {
		t.Fatalf("variants diverged: %+v", tab.Rows)
	}
	for _, r := range tab.Rows {
		if r.Iterations != 3 {
			t.Fatalf("%s ran %d iterations", r.Label, r.Iterations)
		}
		if strings.Contains(r.Label, "cache") {
			// The first pass misses; the two warm passes must hit.
			if r.Retrieval.CacheHits == 0 || r.Retrieval.CacheBytesSaved == 0 {
				t.Fatalf("%s never warmed: %+v", r.Label, r.Retrieval)
			}
			if r.Retrieval.CacheHits != 2*r.Retrieval.CacheMisses {
				t.Fatalf("%s hits/misses = %d/%d, want 2:1 over 3 passes",
					r.Label, r.Retrieval.CacheHits, r.Retrieval.CacheMisses)
			}
		} else if r.Retrieval.CacheHits != 0 {
			t.Fatalf("%s hit a cache that should not exist: %+v", r.Label, r.Retrieval)
		}
	}
	out := tab.Render("pagerank", OverlapColumns)
	if !strings.Contains(out, "identical digests across all variants") {
		t.Fatalf("render = %q", out)
	}

	// The buffer's cold arm is the same rule one tier up: Sweep turns
	// its BufferBytes into one persistent buffer per site, so the first
	// pass misses and the two warm passes hit.
	tab, err = Buffer(spec, tinySim(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := tab.Row("cold-buffer").Retrieval
	if cold.BufferMisses == 0 || cold.BufferHits != 2*cold.BufferMisses {
		t.Fatalf("cold-buffer hits/misses = %d/%d, want 2:1 over 3 passes", cold.BufferHits, cold.BufferMisses)
	}
	if !tab.Match {
		t.Fatalf("buffer variants diverged: %+v", tab.Rows)
	}
}
