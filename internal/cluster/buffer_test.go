package cluster

import (
	"testing"

	"cloudburst/internal/store"
	"cloudburst/internal/workload"
)

// bufferFixture is the standard two-site fixture with the cloud site
// reading its home data object-store style (HomeFetch), which is the
// configuration the burst buffer exists for.
func bufferFixture(t *testing.T, records int64) (DeployConfig, workload.Words) {
	t.Helper()
	cfg, gen := fixture(t, records, 8, 4, 3, 3)
	paceCompute(t, &cfg) // the cloud site must get to do some of the work
	for i := range cfg.Sites {
		if cfg.Sites[i].Name == "cloud" {
			cfg.Sites[i].HomeFetch = true
		}
	}
	return cfg, gen
}

// TestRunBufferInvariance: the buffer tier is a retrieval optimization,
// not a semantics change — digests and job accounting must be identical
// with and without it, while the buffered run shows per-tier counters.
func TestRunBufferInvariance(t *testing.T) {
	base, gen := bufferFixture(t, 8000)
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	buffered, _ := bufferFixture(t, 8000)
	buffered.BufferBytes = 64 << 20
	bufRes, err := Run(buffered)
	if err != nil {
		t.Fatal(err)
	}

	want := wantCounts(gen, 8000)
	checkCounts(t, baseRes.Final, want)
	checkCounts(t, bufRes.Final, want)
	if baseRes.Report.FinalResult != bufRes.Report.FinalResult {
		t.Fatalf("digest changed under buffering:\n base %s\n  buf %s",
			baseRes.Report.FinalResult, bufRes.Report.FinalResult)
	}
	if baseRes.Report.JobsProcessed() != bufRes.Report.JobsProcessed() {
		t.Fatalf("job counts diverged: %d vs %d",
			baseRes.Report.JobsProcessed(), bufRes.Report.JobsProcessed())
	}
	r := bufRes.Report.Retrieval
	if r.BufferHits+r.BufferMisses == 0 {
		t.Fatalf("buffered run recorded no buffer traffic: %+v", r)
	}
	if r.BufferBackingBytes == 0 {
		t.Fatalf("buffered run recorded no backing traffic: %+v", r)
	}
	if r.BufferBytes < r.BufferBackingBytes {
		t.Fatalf("served %d < backing %d: the tier amplified egress", r.BufferBytes, r.BufferBackingBytes)
	}
	b := baseRes.Report.Retrieval
	if b.BufferHits+b.BufferMisses != 0 || b.BufferBackingBytes != 0 {
		t.Fatalf("bufferless run recorded buffer traffic: %+v", b)
	}
}

// TestRunBufferStaging: with hints flowing, the master must stage
// queue-front chunks into the buffer ahead of demand, bounded by the
// staging budget, and the staged bytes must show in the report.
func TestRunBufferStaging(t *testing.T) {
	cfg, gen := bufferFixture(t, 8000)
	cfg.BufferBytes = 64 << 20
	cfg.HintDepth = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 8000))
	r := res.Report.Retrieval
	if r.StagedBytes == 0 {
		t.Fatalf("hinted buffered run staged nothing: %+v", r)
	}
	if r.BufferHits == 0 {
		t.Fatalf("staging produced no buffer hits: %+v", r)
	}
}

// TestRunBufferStageBudget: a one-byte budget must suppress staging
// entirely without affecting correctness.
func TestRunBufferStageBudget(t *testing.T) {
	cfg, gen := bufferFixture(t, 4000)
	cfg.BufferBytes = 64 << 20
	cfg.HintDepth = 4
	cfg.StageBudget = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 4000))
	if r := res.Report.Retrieval; r.StagedBytes != 0 {
		t.Fatalf("staging ran past a 1-byte budget: %+v", r)
	}
}

// TestRunBufferDownDegrades: a buffer whose backing store dies must not
// take the run down — slaves latch buffer-down and fall back to direct
// object-store fetches, and the result stays correct.
func TestRunBufferDownDegrades(t *testing.T) {
	cfg, gen := bufferFixture(t, 8000)
	for i := range cfg.Sites {
		site := &cfg.Sites[i]
		if site.Name != "cloud" {
			continue
		}
		// The buffer reads through a store that fails after 2 reads;
		// the slaves' direct path keeps the healthy HomeStore.
		failing := &failAfterReads{Store: site.HomeStore}
		failing.left.Store(2)
		site.Buffer = store.NewSiteBuffer(store.SiteBufferConfig{
			Site: site.Name, Backing: failing, Capacity: 64 << 20,
			Fetch: store.DefaultFetchOptions(),
		})
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Final, wantCounts(gen, 8000))
	if res.Report.FinalResult == "" {
		t.Fatal("missing final result digest")
	}
}
