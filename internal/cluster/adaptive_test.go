package cluster

import (
	"testing"

	"cloudburst/internal/netsim"
)

// TestResidentUnionDistinguishesEmptyFromNone: the union must stay
// non-nil whenever any slave has reported — even a drained cache —
// so the head runs SetResident's delete path and sheds the site's
// stale warm set, instead of skipping the update. (The wire codec
// preserves the nil vs. empty distinction end to end.)
func TestResidentUnionDistinguishesEmptyFromNone(t *testing.T) {
	m := &Master{resident: make(map[*slaveConn][]int32)}
	if ids := m.residentUnionLocked(); ids != nil {
		t.Fatalf("no reports: got %v, want nil", ids)
	}
	m.resident[&slaveConn{}] = nil // a slave with an enabled but drained cache
	if ids := m.residentUnionLocked(); ids == nil || len(ids) != 0 {
		t.Fatalf("drained report: got %v, want non-nil empty", ids)
	}
	m.resident[&slaveConn{}] = []int32{3, 5, 3}
	ids := m.residentUnionLocked()
	if ids == nil || len(ids) != 2 {
		t.Fatalf("union = %v, want deduped {3,5}", ids)
	}
}

// TestRunHintsWarmCacheMatchesBaseline: master-piggybacked prefetch
// hints are an optimization on top of prefetch + cache — the final
// object and digest must match a hint-free run, and the hint counters
// must show the pipeline actually ran (grants carried hints, slaves
// warmed the cache from them).
func TestRunHintsWarmCacheMatchesBaseline(t *testing.T) {
	base, gen := fixture(t, 8000, 8, 4, 3, 3)
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	hinted, _ := fixture(t, 8000, 8, 4, 3, 3)
	hinted.Prefetch = true
	hinted.CacheBytes = 32 << 20
	hinted.HintDepth = 4
	hintedRes, err := Run(hinted)
	if err != nil {
		t.Fatal(err)
	}

	want := wantCounts(gen, 8000)
	checkCounts(t, baseRes.Final, want)
	checkCounts(t, hintedRes.Final, want)
	if baseRes.Report.FinalResult != hintedRes.Report.FinalResult {
		t.Fatalf("digest changed under hints:\n base   %s\n hinted %s",
			baseRes.Report.FinalResult, hintedRes.Report.FinalResult)
	}
	r := hintedRes.Report.Retrieval
	if r.HintsReceived == 0 {
		t.Fatalf("no hints reached the slaves: %+v", r)
	}
	if r.HintsWarmed == 0 {
		t.Fatalf("hints received but none warmed the cache: %+v", r)
	}
	if b := baseRes.Report.Retrieval; b.HintsReceived != 0 || b.HintsWarmed != 0 {
		t.Fatalf("hint-free run recorded hint traffic: %+v", b)
	}
}

// TestRunHintsWithoutCacheDegradeSilently: hints flowing to a slave
// with no cache to warm must be dropped without affecting the result.
func TestRunHintsWithoutCacheDegradeSilently(t *testing.T) {
	cfg, gen := fixture(t, 4000, 4, 2, 2, 2)
	cfg.Prefetch = true
	cfg.HintDepth = 4 // no CacheBytes: nothing to warm into
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 4000))
	if r := res.Report.Retrieval; r.HintsWarmed != 0 {
		t.Fatalf("cacheless run warmed hints: %+v", r)
	}
}

// TestRunFetchAutotuneMatchesBaseline: the AIMD fetch controller
// resizes and reorders range requests but never changes what is
// computed. All data is homed at "local" while only the cloud site has
// cores, so every chunk travels the remote fetch path the controller
// governs.
func TestRunFetchAutotuneMatchesBaseline(t *testing.T) {
	base, gen := fixture(t, 8000, 8, 8, 0, 3)
	base.Clock = netsim.Real()
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	tuned, _ := fixture(t, 8000, 8, 8, 0, 3)
	tuned.Clock = netsim.Real()
	tuned.FetchAutotune = true
	tunedRes, err := Run(tuned)
	if err != nil {
		t.Fatal(err)
	}

	want := wantCounts(gen, 8000)
	checkCounts(t, baseRes.Final, want)
	checkCounts(t, tunedRes.Final, want)
	if baseRes.Report.FinalResult != tunedRes.Report.FinalResult {
		t.Fatalf("digest changed under autotune:\n base  %s\n tuned %s",
			baseRes.Report.FinalResult, tunedRes.Report.FinalResult)
	}
	r := tunedRes.Report.Retrieval
	if r.AutotuneSamples == 0 {
		t.Fatalf("autotune run observed no fetches: %+v", r)
	}
	if b := baseRes.Report.Retrieval; b.AutotuneSamples != 0 {
		t.Fatalf("static run recorded controller samples: %+v", b)
	}
}
