package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBreakdownAccumulates(t *testing.T) {
	var b Breakdown
	b.AddProcessing(2 * time.Second)
	b.AddProcessing(3 * time.Second)
	b.AddRetrieval(time.Second, 1024, false)
	b.AddRetrieval(4*time.Second, 2048, true)
	b.AddSync(500 * time.Millisecond)
	b.CountJob(false, 100)
	b.CountJob(true, 50)

	s := b.Snapshot()
	if s.Processing != 5*time.Second {
		t.Errorf("processing = %v", s.Processing)
	}
	if s.Retrieval != 5*time.Second {
		t.Errorf("retrieval = %v", s.Retrieval)
	}
	if s.Sync != 500*time.Millisecond {
		t.Errorf("sync = %v", s.Sync)
	}
	if s.JobsProcessed != 2 || s.JobsStolen != 1 {
		t.Errorf("jobs = %d stolen = %d", s.JobsProcessed, s.JobsStolen)
	}
	if s.UnitsReduced != 150 {
		t.Errorf("units = %d", s.UnitsReduced)
	}
	if s.BytesRead != 3072 || s.BytesRemote != 2048 {
		t.Errorf("bytes = %d remote = %d", s.BytesRead, s.BytesRemote)
	}
}

func TestBreakdownMerge(t *testing.T) {
	var a, b Breakdown
	a.AddProcessing(time.Second)
	a.CountJob(false, 10)
	b.AddProcessing(2 * time.Second)
	b.CountJob(true, 20)
	a.Merge(&b)
	s := a.Snapshot()
	if s.Processing != 3*time.Second {
		t.Errorf("merged processing = %v", s.Processing)
	}
	if s.JobsProcessed != 2 || s.JobsStolen != 1 {
		t.Errorf("merged jobs = %+v", s)
	}
	a.Merge(nil) // must not panic
}

func TestBreakdownConcurrent(t *testing.T) {
	var b Breakdown
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.AddProcessing(time.Millisecond)
				b.CountJob(j%2 == 0, 1)
			}
		}()
	}
	wg.Wait()
	s := b.Snapshot()
	if s.Processing != 1600*time.Millisecond {
		t.Errorf("concurrent processing = %v", s.Processing)
	}
	if s.JobsProcessed != 1600 || s.JobsStolen != 800 {
		t.Errorf("concurrent jobs = %d/%d", s.JobsProcessed, s.JobsStolen)
	}
}

func TestSnapshotTotalAndAdd(t *testing.T) {
	s := Snapshot{Processing: 1 * time.Second, Retrieval: 2 * time.Second, Sync: 3 * time.Second}
	if s.Total() != 6*time.Second {
		t.Errorf("total = %v", s.Total())
	}
	sum := s.Add(s)
	if sum.Total() != 12*time.Second {
		t.Errorf("add total = %v", sum.Total())
	}
}

func TestSnapshotDivideTimes(t *testing.T) {
	s := Snapshot{Processing: 8 * time.Second, Retrieval: 4 * time.Second, Sync: 2 * time.Second, JobsProcessed: 7}
	d := s.DivideTimes(2)
	if d.Processing != 4*time.Second || d.Retrieval != 2*time.Second || d.Sync != time.Second {
		t.Errorf("divided = %+v", d)
	}
	if d.JobsProcessed != 7 {
		t.Error("DivideTimes must not touch counters")
	}
	if got := s.DivideTimes(0); got != s {
		t.Error("divide by 0 should be identity")
	}
}

// Property: Add is commutative and Total distributes over Add.
func TestSnapshotAddProperty(t *testing.T) {
	f := func(p1, r1, s1, p2, r2, s2 uint32) bool {
		a := Snapshot{Processing: time.Duration(p1), Retrieval: time.Duration(r1), Sync: time.Duration(s1)}
		b := Snapshot{Processing: time.Duration(p2), Retrieval: time.Duration(r2), Sync: time.Duration(s2)}
		return a.Add(b) == b.Add(a) && a.Add(b).Total() == a.Total()+b.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunReportClusterLookup(t *testing.T) {
	r := RunReport{Clusters: []ClusterReport{
		{Site: "local", Workers: Snapshot{JobsProcessed: 480}},
		{Site: "cloud", Workers: Snapshot{JobsProcessed: 480}},
	}}
	if c := r.Cluster("cloud"); c == nil || c.Site != "cloud" {
		t.Fatal("cluster lookup failed")
	}
	if r.Cluster("mars") != nil {
		t.Fatal("missing cluster should be nil")
	}
	if r.JobsProcessed() != 960 {
		t.Fatalf("jobs processed = %d", r.JobsProcessed())
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{Processing: time.Second, JobsProcessed: 3, JobsStolen: 1}
	str := s.String()
	if !strings.Contains(str, "jobs=3") || !strings.Contains(str, "stolen=1") {
		t.Fatalf("string = %q", str)
	}
}

// TestRunReportJSONRoundTrip guards the on-disk stability of the run
// report: the advisor's history extraction and every bench -json
// artifact depend on a RunReport surviving a marshal/unmarshal cycle
// with no field silently dropped. Populate every branch (sync,
// elastic, preemption, spot tier) with distinct values so a field
// that stops serializing fails loudly.
func TestRunReportJSONRoundTrip(t *testing.T) {
	rep := RunReport{
		App: "knn", Env: "env-50/50",
		Clusters: []ClusterReport{
			{
				Site: "local",
				Workers: Snapshot{
					Processing: 11 * time.Second, Retrieval: 3 * time.Second,
					Sync: time.Second, JobsProcessed: 480, JobsStolen: 12,
					BytesRead: 1 << 24, BytesRemote: 1 << 20,
				},
				Cores: 8, IdleAtEnd: 2 * time.Second, Wall: 240 * time.Second,
			},
			{
				Site: "cloud",
				Workers: Snapshot{
					Processing: 9 * time.Second, JobsProcessed: 480,
					BytesRead: 1 << 23, BytesRemote: 1 << 21,
				},
				Cores: 2, Wall: 238 * time.Second, ResultShip: 40 * time.Second,
			},
		},
		GlobalRed: 4 * time.Second, TotalWall: 244 * time.Second,
		FinalResult: "digest-abc",
		Faults:      FaultReport{Injected: 7, Retries: 5, BackoffEmu: time.Second, HeartbeatMisses: 1},
		Retrieval: RetrievalReport{
			CacheHits: 10, CacheMisses: 20, CacheBytesSaved: 1 << 22,
			PrefetchedJobs: 30, PoolGets: 40, AutotuneSamples: 50,
		},
		Sync: &SyncReport{
			Mode: "streamed-parallel", Parts: 64, StreamedBytes: 1 << 25,
			Merges: 9, MaxParallel: 3,
			PartialSite: "cloud", PartialHiddenEmu: 39 * time.Second,
		},
		Elastic: &ElasticReport{
			Site: "cloud", Deadline: 200 * time.Second, MetDeadline: true,
			Workers: 10, Peak: 12, Boots: 10, Drains: 2, WastedBoots: 1,
			SeededWorkers: 8, CostCapHits: 3,
			Events: []ScaleEvent{
				{AtEmu: 0, Site: "cloud", From: 2, To: 10, Reason: "advisor warm start"},
				{AtEmu: 90 * time.Second, Site: "cloud", From: 10, To: 12, Reason: "deadline at risk"},
			},
			InstanceSecs: 1920, EgressBytes: 1 << 21,
			InstanceUSD: 0.09, EgressUSD: 0.01, TotalUSD: 0.1,
			Revocations: 2, WarnedRevs: 1, Replacements: 2, OnDemandWorkers: 1,
			SpotSecs: 900, OnDemandSecs: 1020, SpotUSD: 0.03, OnDemandUSD: 0.06,
		},
		Preemption: &PreemptionReport{Revocations: 2, PreemptWarns: 1, CheckpointsSent: 4},
	}

	if line := rep.Sync.String(); !strings.Contains(line, "laggard cloud") || !strings.Contains(line, "39s") {
		t.Fatalf("sync summary does not name the laggard and its hidden time: %q", line)
	}

	out, err := json.Marshal(&rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back RunReport
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip changed the report:\n before %+v\n after  %+v", rep, back)
	}
	// Second generation must be byte-stable (no map ordering or float
	// formatting drift feeding spurious history diffs).
	out2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(out) != string(out2) {
		t.Fatalf("re-marshal not byte-identical:\n first  %s\n second %s", out, out2)
	}
}
