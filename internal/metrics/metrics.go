// Package metrics defines the timing and counting instrumentation the
// paper's evaluation reports: per-slave and per-cluster breakdowns of
// processing time, data-retrieval time, and synchronization (barrier)
// time, plus global-reduction time, end-of-run idle time, and job
// accounting (processed vs. stolen). These feed Figures 3 and 4 and
// Tables I and II directly.
package metrics

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// heartbeatSenderStops counts heartbeat-sender goroutines that exited
// because a send failed (as opposed to being stopped deliberately). A
// dead heartbeater is otherwise invisible until the peer's idle
// deadline fires, so this is a process-wide gauge rather than a
// per-Breakdown counter: the sender usually dies exactly because the
// connection that would carry its Breakdown upstream is gone.
var heartbeatSenderStops atomic.Int64

// CountHeartbeatSenderStop records a heartbeat sender that died on a
// failed send.
func CountHeartbeatSenderStop() { heartbeatSenderStops.Add(1) }

// HeartbeatSenderStops returns the number of heartbeat senders that
// have died on a failed send since process start.
func HeartbeatSenderStops() int64 { return heartbeatSenderStops.Load() }

// Breakdown accumulates the per-worker timing decomposition used in
// Figures 3 and 4: a Snapshot behind a mutex, which every Count*/Add*
// method bumps in place. All durations are in emulated time. Breakdown
// is safe for concurrent use.
type Breakdown struct {
	mu sync.Mutex
	s  Snapshot
}

// do applies f to the totals under the lock.
func (b *Breakdown) do(f func(*Snapshot)) {
	b.mu.Lock()
	f(&b.s)
	b.mu.Unlock()
}

// AddProcessing records emulated compute time.
func (b *Breakdown) AddProcessing(d time.Duration) { b.do(func(s *Snapshot) { s.Processing += d }) }

// AddRetrieval records emulated data-retrieval time, along with the
// bytes read and whether they came from a remote site.
func (b *Breakdown) AddRetrieval(d time.Duration, bytes int64, remote bool) {
	b.do(func(s *Snapshot) {
		s.Retrieval += d
		s.BytesRead += bytes
		if remote {
			s.BytesRemote += bytes
		}
	})
}

// AddSync records emulated barrier/wait time.
func (b *Breakdown) AddSync(d time.Duration) { b.do(func(s *Snapshot) { s.Sync += d }) }

// AddRetry records one retried request and the emulated backoff spent
// before the retry.
func (b *Breakdown) AddRetry(backoff time.Duration) {
	b.do(func(s *Snapshot) {
		s.Retries++
		s.BackoffEmu += backoff
	})
}

// CountHeartbeatMiss records a peer declared stalled after missing its
// heartbeat deadline.
func (b *Breakdown) CountHeartbeatMiss() { b.do(func(s *Snapshot) { s.HeartbeatMisses++ }) }

// CountCache records one chunk retrieval's cache outcome; bytes is
// the chunk size served from cache on a hit.
func (b *Breakdown) CountCache(hit bool, bytes int64) {
	b.do(func(s *Snapshot) {
		if hit {
			s.CacheHits++
			s.CacheBytesSaved += bytes
		} else {
			s.CacheMisses++
		}
	})
}

// AddPrefetch records one job whose chunk data was prefetched while a
// previous job computed; saved is the retrieval time the overlap hid
// from the critical path.
func (b *Breakdown) AddPrefetch(saved time.Duration) {
	b.do(func(s *Snapshot) {
		s.PrefetchedJobs++
		s.PrefetchSavedEmu += saved
	})
}

// CountPrefetchSkip records a prefetch forgone because the slave's
// in-flight byte budget was exhausted.
func (b *Breakdown) CountPrefetchSkip() { b.do(func(s *Snapshot) { s.PrefetchSkips++ }) }

// CountAutotune records one fetch observed by an AIMD autotuner and
// the controller decision it closed: dec > 0 is an additive increase,
// dec < 0 a multiplicative back-off, 0 no epoch boundary.
func (b *Breakdown) CountAutotune(dec int) {
	b.do(func(s *Snapshot) {
		s.AutotuneSamples++
		if dec > 0 {
			s.AutotuneRaises++
		} else if dec < 0 {
			s.AutotuneDrops++
		}
	})
}

// CountHint records one prefetch-hint job received from the master and
// its outcome: warmed into the cache, or denied by the byte budget.
func (b *Breakdown) CountHint(warmed bool) {
	b.do(func(s *Snapshot) {
		s.HintsReceived++
		if warmed {
			s.HintsWarmed++
		} else {
			s.HintsDenied++
		}
	})
}

// CountHintTrim records the master shrinking one slave's effective
// hint depth because its reported hint waste climbed.
func (b *Breakdown) CountHintTrim() { b.do(func(s *Snapshot) { s.HintTrims++ }) }

// CountCheckpoint records one partial-reduction checkpoint shipped to
// the master.
func (b *Breakdown) CountCheckpoint() { b.do(func(s *Snapshot) { s.Checkpoints++ }) }

// CountCheckpointAdopt records the master merging a lost slave's last
// checkpoint; jobs is how many completed jobs the checkpoint covered —
// work that would otherwise have been re-executed.
func (b *Breakdown) CountCheckpointAdopt(jobs int) {
	b.do(func(s *Snapshot) {
		s.CheckpointsAdopted++
		s.JobsRecovered += jobs
	})
}

// CountRequeue records granted jobs returned to the queue after a
// slave loss — the re-execution cost of the loss.
func (b *Breakdown) CountRequeue(n int) { b.do(func(s *Snapshot) { s.JobsRequeued += n }) }

// CountPreemptAbandon records in-flight jobs a warned slave abandoned
// because its warning window could not fit them.
func (b *Breakdown) CountPreemptAbandon(n int) { b.do(func(s *Snapshot) { s.JobsAbandoned += n }) }

// CountPreemptWarn records one revocation warning.
func (b *Breakdown) CountPreemptWarn() { b.do(func(s *Snapshot) { s.PreemptWarns++ }) }

// CountPreemptDrain records one accelerated drain that flushed its
// partial reduction before the hard kill landed.
func (b *Breakdown) CountPreemptDrain() { b.do(func(s *Snapshot) { s.PreemptDrains++ }) }

// CountBuffer records one chunk read served through the site buffer
// tier: hit says whether the buffer had the chunk resident, bytes is
// the chunk size read.
func (b *Breakdown) CountBuffer(hit bool, bytes int64) {
	b.do(func(s *Snapshot) {
		if hit {
			s.BufferHits++
		} else {
			s.BufferMisses++
		}
		s.BufferBytes += bytes
	})
}

// AddStaged records bytes the master staged into the site buffer ahead
// of slave demand.
func (b *Breakdown) AddStaged(bytes int64) { b.do(func(s *Snapshot) { s.StagedBytes += bytes }) }

// AddObjectStream records one streamed reduction-object transfer:
// parts frames carrying bytes actual encoded bytes, against the
// object's est(imated) Reduction.Bytes() at ship time.
func (b *Breakdown) AddObjectStream(parts int, bytes, est int64) {
	b.do(func(s *Snapshot) {
		s.ObjectParts += parts
		s.ObjectBytes += bytes
		s.ObjectEstBytes += est
	})
}

// CountCheckpointSkip records one checkpoint push elided because the
// encoded object was byte-identical to the previously acked one.
func (b *Breakdown) CountCheckpointSkip() { b.do(func(s *Snapshot) { s.CheckpointSkips++ }) }

// AddMerge folds merge activity in: merges pairwise merge operations,
// busy the summed merge spans, tail the merge work left exposed after
// the last input arrived, and maxPar the peak concurrent mergers.
func (b *Breakdown) AddMerge(merges int, busy, tail time.Duration, maxPar int) {
	b.do(func(s *Snapshot) {
		s.Merges += merges
		s.MergeBusyEmu += busy
		s.MergeTailEmu += tail
		s.MergeMaxPar = max(s.MergeMaxPar, maxPar)
	})
}

// AddPool folds buffer-pool counters (gets and allocation misses) in.
func (b *Breakdown) AddPool(gets, misses int64) {
	b.do(func(s *Snapshot) {
		s.PoolGets += gets
		s.PoolMisses += misses
	})
}

// CountJob records a completed job and whether its data was stolen
// from a remote site, along with the units it contained.
func (b *Breakdown) CountJob(stolen bool, units int64) {
	b.do(func(s *Snapshot) {
		s.JobsProcessed++
		if stolen {
			s.JobsStolen++
		}
		s.UnitsReduced += units
	})
}

// AddSnapshot folds a previously captured snapshot into b.
func (b *Breakdown) AddSnapshot(o Snapshot) { b.do(func(s *Snapshot) { *s = s.Add(o) }) }

// Snapshot returns a copy of the current totals.
func (b *Breakdown) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.s
}

// Snapshot is a copy of a Breakdown's totals, and the one place a
// per-worker counter is declared: Breakdown, Add, the report sections
// and the wire codec all walk or embed it. Every field is an integer
// counter (the codec carries nothing else).
type Snapshot struct {
	Processing    time.Duration // local reduction compute
	Retrieval     time.Duration // reading chunk data (local disk or remote store)
	Sync          time.Duration // waiting at barriers / for job responses at drain
	JobsProcessed int           // chunks fully reduced by this worker/cluster
	JobsStolen    int           // chunks whose data lived at another site
	UnitsReduced  int64
	BytesRead     int64
	BytesRemote   int64

	Retries         int           // retried store/wire requests
	BackoffEmu      time.Duration // emulated time spent backing off
	HeartbeatMisses int           // peers declared stalled via heartbeat

	CacheHits        int           // chunk retrievals served from the cache
	CacheMisses      int           // chunk retrievals that went to the store
	CacheBytesSaved  int64         // bytes served from cache instead of refetched
	PrefetchedJobs   int           // jobs whose chunk arrived via prefetch
	PrefetchSavedEmu time.Duration // retrieval time hidden behind compute
	PrefetchSkips    int           // prefetches skipped (byte budget exhausted)
	PoolGets         int64         // fetch buffers handed out by the pool
	PoolMisses       int64         // pool gets that had to allocate

	AutotuneSamples int // fetches observed by an AIMD fetch autotuner
	AutotuneRaises  int // autotuner additive thread-count increases
	AutotuneDrops   int // autotuner multiplicative back-offs
	HintsReceived   int // prefetch-hint jobs received from the master
	HintsWarmed     int // hint chunks fetched into the cache ahead of a grant
	HintsDenied     int // hints skipped (byte budget exhausted)
	HintTrims       int // master cuts to a slave's effective hint depth

	Checkpoints        int // partial-reduction checkpoints shipped to the master
	CheckpointsAdopted int // checkpoints merged after an unwarned slave loss
	JobsRecovered      int // jobs a checkpoint adoption saved from re-execution
	JobsRequeued       int // granted jobs requeued after a slave loss
	JobsAbandoned      int // in-flight jobs abandoned by a preemption drain
	PreemptWarns       int // revocation warnings received / observed
	PreemptDrains      int // accelerated drains that flushed before the kill

	// New counters append here: the wire codec walks Snapshot fields in
	// declaration order and drops trailing unknowns, so appending keeps
	// mixed-version peers decoding each other.
	BufferHits   int   // chunk reads the site buffer served from residency
	BufferMisses int   // buffer reads that paid a backing fetch
	BufferBytes  int64 // bytes read through the site buffer tier
	StagedBytes  int64 // bytes staged into the site buffer ahead of demand

	ObjectParts     int           // streamed object frames shipped/received
	ObjectBytes     int64         // actual encoded object bytes streamed
	ObjectEstBytes  int64         // Reduction.Bytes() estimates for the same objects
	CheckpointSkips int           // checkpoint pushes elided (object unchanged)
	Merges          int           // pairwise reduction merges performed
	MergeBusyEmu    time.Duration // summed merge spans (overlapping under parallel)
	MergeTailEmu    time.Duration // merge work exposed after the last arrival
	MergeMaxPar     int           // peak concurrent mergers (max-folded, not summed)
}

// Total returns the summed time components.
func (s Snapshot) Total() time.Duration { return s.Processing + s.Retrieval + s.Sync }

// Add returns the field-wise sum of two snapshots. It walks the fields
// in declaration order, as the wire codec does, so a new counter sums
// without being named here. The one rule besides summing: MergeMaxPar
// is a peak, and a peak folds by max.
func (s Snapshot) Add(o Snapshot) Snapshot {
	peak := max(s.MergeMaxPar, o.MergeMaxPar)
	sv, ov := reflect.ValueOf(&s).Elem(), reflect.ValueOf(o)
	for i := range sv.NumField() {
		f := sv.Field(i)
		f.SetInt(f.Int() + ov.Field(i).Int())
	}
	s.MergeMaxPar = peak
	return s
}

// DivideTimes returns a snapshot whose time components are divided by
// n, used to average per-core breakdowns into a per-cluster figure the
// way the paper's stacked bars do. Counters are left untouched.
func (s Snapshot) DivideTimes(n int) Snapshot {
	if n <= 0 {
		return s
	}
	out := s
	out.Processing /= time.Duration(n)
	out.Retrieval /= time.Duration(n)
	out.Sync /= time.Duration(n)
	return out
}

// ClusterReport is the per-cluster summary produced at the end of a
// run: the aggregated worker breakdown plus cluster-level events.
type ClusterReport struct {
	Site string
	// Workers is the per-core average time breakdown (paper bars).
	Workers Snapshot
	// Cores is the number of virtual cores the cluster ran.
	Cores int
	// IdleAtEnd is how long this cluster waited for the other cluster
	// to finish before the global reduction could start (Table II).
	IdleAtEnd time.Duration
	// Wall is the cluster's total emulated wall time from start to its
	// local-combine completion.
	Wall time.Duration
	// ResultShip is the emulated time the cluster's combined result then
	// spent reaching the head (measured head-side: registration-to-
	// arrival minus Wall).
	ResultShip time.Duration
}

// FaultReport aggregates fault-recovery activity over a run: what the
// fault plan injected (filled by the harness), and what the retry and
// heartbeat machinery did about it (filled by the head from worker and
// master stats plus its own stall detections).
type FaultReport struct {
	Injected        int64         // faults the plan injected (harness-filled)
	Retries         int           // retried store/wire requests
	BackoffEmu      time.Duration // emulated time spent in retry backoff
	HeartbeatMisses int           // peers declared stalled and re-executed
}

// Any reports whether any fault-path activity was recorded.
func (f FaultReport) Any() bool {
	return f.Injected > 0 || f.Retries > 0 || f.BackoffEmu > 0 || f.HeartbeatMisses > 0
}

// RetrievalReport aggregates the retrieval-pipeline activity over a
// run: every worker's counters summed run-wide (chunk-cache
// effectiveness, prefetch overlap, buffer-pool reuse, hints, the site
// buffer tier), plus what no worker snapshot holds.
type RetrievalReport struct {
	Snapshot

	StealsCold int // stolen grants whose chunks were cache-cold at the victim
	StealsWarm int // stolen grants that took cache-warm victim chunks

	// Hint-quality feedback: hint chunks a slave warmed into its cache
	// that were never granted to any of its workers — warm bytes the
	// master's hint stream wasted on work that went elsewhere.
	WastedHints     int   // hinted-and-warmed chunks never granted
	WastedWarmBytes int64 // bytes warmed for those chunks

	// BufferBackingBytes is what the site buffer itself paid the backing
	// store: the run's true S3 egress for buffered reads — everything
	// above it in BufferBytes was absorbed by sharing.
	BufferBackingBytes int64
}

// Add folds another report in (summing a run sequence, e.g. the
// iterations of a multi-pass algorithm).
func (r *RetrievalReport) Add(o RetrievalReport) {
	r.Snapshot = r.Snapshot.Add(o.Snapshot)
	r.StealsCold += o.StealsCold
	r.StealsWarm += o.StealsWarm
	r.WastedHints += o.WastedHints
	r.WastedWarmBytes += o.WastedWarmBytes
	r.BufferBackingBytes += o.BufferBackingBytes
}

// PreemptionReport aggregates spot-revocation activity over a run:
// what the revocation trace did to the fleet (harness-filled) and how
// the drain/checkpoint machinery limited the damage (counter-derived).
type PreemptionReport struct {
	Revocations int // slaves revoked by the trace
	Warned      int // revocations that granted a warning window
	Unwarned    int // hard kills with no notice

	DrainsCompleted int // warned slaves whose accelerated drain flushed in time
	DrainsAborted   int // warned slaves killed before their flush landed
	PreemptWarns    int // warnings observed by masters

	CheckpointsSent    int // partial-reduction checkpoints slaves shipped
	CheckpointsAdopted int // checkpoints merged after an unwarned loss
	JobsRecovered      int // jobs checkpoint adoption saved from re-execution
	JobsAbandoned      int // in-flight jobs drains abandoned for lack of time
	JobsRequeued       int // granted jobs requeued for re-execution
	CheckpointSkips    int // checkpoint pushes elided (object unchanged)
}

// Any reports whether any preemption activity was recorded.
func (p PreemptionReport) Any() bool {
	return p.Revocations > 0 || p.PreemptWarns > 0 || p.CheckpointsSent > 0 ||
		p.JobsRequeued > 0 || p.JobsAbandoned > 0
}

// SyncReport summarizes the global-reduction synchronization phase:
// how reduction objects moved (streamed parts vs. monolithic frames)
// and how merge work overlapped with their arrival.
type SyncReport struct {
	Mode          string // sync mode the run used: monolithic or streamed-parallel
	Parts         int    // streamed object frames across all hops
	StreamedBytes int64  // actual encoded object bytes streamed
	EstBytes      int64  // Reduction.Bytes() estimates for the same objects

	Merges          int           // pairwise reduction merges performed
	MergeBusyEmu    time.Duration // summed merge spans (overlapping under parallel)
	MergeTailEmu    time.Duration // merge work exposed after the last arrival
	OverlapSavedEmu time.Duration // merge time hidden behind transfer (busy - tail)
	MaxParallel     int           // peak concurrent mergers observed
	CheckpointSkips int           // checkpoint pushes elided as unchanged

	// The exchange (streamed plan, two or more clusters): PartialSite
	// is the laggard — the last cluster to deliver, which received the
	// merge of all the others instead of a Final broadcast — and
	// PartialHiddenEmu how long that downlink had already been running
	// when the laggard's own result landed, i.e. the broadcast time the
	// exchange took off the critical path.
	PartialSite      string
	PartialHiddenEmu time.Duration
}

// String renders the transfer/merge summary on one line.
func (s SyncReport) String() string {
	out := fmt.Sprintf("sync[%s]: %d parts %.2f MB, %d merges busy=%v tail=%v maxpar=%d",
		s.Mode, s.Parts, float64(s.StreamedBytes)/(1<<20), s.Merges,
		s.MergeBusyEmu.Round(time.Millisecond), s.MergeTailEmu.Round(time.Millisecond), s.MaxParallel)
	if s.PartialSite != "" {
		out += fmt.Sprintf(", laggard %s got the others' merge %v before its own result landed",
			s.PartialSite, s.PartialHiddenEmu.Round(time.Millisecond))
	}
	return out
}

// RunReport is the whole-run summary the harness renders tables from.
type RunReport struct {
	App         string
	Env         string
	Clusters    []ClusterReport
	GlobalRed   time.Duration     // head-side global reduction + transfer
	TotalWall   time.Duration     // emulated end-to-end execution time
	FinalResult string            // application-rendered result digest
	Faults      FaultReport       // fault-injection and recovery counters
	Retrieval   RetrievalReport   // cache / prefetch / buffer-pool counters
	Sync        *SyncReport       // global-reduction transfer/merge summary (nil if none)
	Elastic     *ElasticReport    // scaling controller summary (nil if static)
	Preemption  *PreemptionReport // spot-revocation summary (nil if none)
}

// ScaleEvent records one scaling decision the elastic controller made.
type ScaleEvent struct {
	AtEmu  time.Duration // emulated elapsed time of the decision
	Site   string
	From   int // commanded workers before
	To     int // commanded workers after
	Reason string
}

// ElasticReport summarizes the elastic controller's run: membership
// churn, whether the deadline was met, and the cost-model accounting
// (emu instance-time plus remote egress).
type ElasticReport struct {
	Site        string        // the scaled site
	Deadline    time.Duration // emulated run deadline (0 = none)
	MetDeadline bool
	Workers     int // commanded workers at end of run
	Peak        int // maximum commanded workers
	Boots       int // workers provisioned mid-run
	Drains      int // workers retired mid-run
	WastedBoots int // booted instances that arrived after the run ended
	// SeededWorkers counts capacity the advisor's warm start commanded
	// at t=0 (included in Boots); CostCapHits counts scale-ups the
	// CostCapUSD budget trimmed or refused.
	SeededWorkers int
	CostCapHits   int
	Events        []ScaleEvent

	InstanceSecs float64 // emulated instance-seconds billed
	EgressBytes  int64   // bytes crossing sites (stolen-chunk retrieval)
	InstanceUSD  float64
	EgressUSD    float64
	TotalUSD     float64

	// Spot-tier accounting (zero unless the controller ran with a spot
	// rate configured). InstanceSecs = SpotSecs + OnDemandSecs and
	// InstanceUSD = SpotUSD + OnDemandUSD when the tier is active.
	Revocations     int     // spot workers revoked mid-run
	WarnedRevs      int     // revocations that carried a warning
	Replacements    int     // replacement boots the controller issued
	OnDemandWorkers int     // on-demand workers commanded at end of run
	SpotSecs        float64 // emulated spot instance-seconds billed
	OnDemandSecs    float64 // emulated on-demand instance-seconds billed
	SpotUSD         float64
	OnDemandUSD     float64
}

// Cluster returns the report for the named site, or nil.
func (r *RunReport) Cluster(site string) *ClusterReport {
	for i := range r.Clusters {
		if r.Clusters[i].Site == site {
			return &r.Clusters[i]
		}
	}
	return nil
}

// JobsProcessed sums processed jobs across clusters.
func (r *RunReport) JobsProcessed() int {
	n := 0
	for _, c := range r.Clusters {
		n += c.Workers.JobsProcessed
	}
	return n
}
