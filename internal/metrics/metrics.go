// Package metrics defines the timing and counting instrumentation the
// paper's evaluation reports: per-slave and per-cluster breakdowns of
// processing time, data-retrieval time, and synchronization (barrier)
// time, plus global-reduction time, end-of-run idle time, and job
// accounting (processed vs. stolen). These feed Figures 3 and 4 and
// Tables I and II directly.
package metrics

import (
	"fmt"
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
// Figures 3 and 4. All durations are in emulated time. Breakdown is
// safe for concurrent use.
type Breakdown struct {
	mu sync.Mutex

	processing time.Duration // local reduction compute
	retrieval  time.Duration // reading chunk data (local disk or remote store)
	sync       time.Duration // waiting at barriers / for job responses at drain

	jobsProcessed int // chunks fully reduced by this worker/cluster
	jobsStolen    int // chunks whose data lived at another site
	unitsReduced  int64
	bytesRead     int64
	bytesRemote   int64

	retries         int           // retried store/wire requests
	backoff         time.Duration // emulated time spent backing off
	heartbeatMisses int           // peers declared stalled via heartbeat

	cacheHits     int           // chunk retrievals served from the cache
	cacheMisses   int           // chunk retrievals that went to the store
	cacheBytes    int64         // bytes served from cache instead of refetched
	prefetched    int           // jobs whose chunk arrived via prefetch
	prefetchSaved time.Duration // retrieval time hidden behind compute
	prefetchSkips int           // prefetches skipped (byte budget exhausted)
	poolGets      int64         // fetch buffers handed out by the pool
	poolMisses    int64         // pool gets that had to allocate

	autotuneSamples int // fetches observed by an AIMD fetch autotuner
	autotuneRaises  int // autotuner additive thread-count increases
	autotuneDrops   int // autotuner multiplicative back-offs

	hintsReceived int // prefetch-hint jobs received from the master
	hintsWarmed   int // hint chunks fetched into the cache ahead of a grant
	hintsDenied   int // hints skipped (byte budget exhausted)
	hintTrims     int // master cuts to a slave's effective hint depth

	checkpoints        int // partial-reduction checkpoints shipped to the master
	checkpointsAdopted int // checkpoints merged after an unwarned slave loss
	jobsRecovered      int // jobs a checkpoint adoption saved from re-execution
	jobsRequeued       int // granted jobs requeued after a slave loss
	jobsAbandoned      int // in-flight jobs abandoned by a preemption drain
	preemptWarns       int // revocation warnings received / observed
	preemptDrains      int // accelerated drains that flushed before the kill

	bufferHits   int   // chunk reads the site buffer served from residency
	bufferMisses int   // buffer reads that paid a backing fetch
	bufferBytes  int64 // bytes read through the site buffer tier
	stagedBytes  int64 // bytes staged into the site buffer ahead of demand

	objectParts     int           // streamed reduction-object frames shipped/received
	objectBytes     int64         // actual encoded object bytes streamed
	objectEstBytes  int64         // Reduction.Bytes() estimates for the same objects
	checkpointSkips int           // checkpoint pushes skipped (object unchanged)
	merges          int           // reduction merge operations performed
	mergeBusy       time.Duration // summed merge spans (emu; overlapping under parallel)
	mergeTail       time.Duration // merge time left exposed after the last arrival (emu)
	mergeMaxPar     int           // peak concurrent merge workers
}

// AddProcessing records emulated compute time.
func (b *Breakdown) AddProcessing(d time.Duration) {
	b.mu.Lock()
	b.processing += d
	b.mu.Unlock()
}

// AddRetrieval records emulated data-retrieval time, along with the
// bytes read and whether they came from a remote site.
func (b *Breakdown) AddRetrieval(d time.Duration, bytes int64, remote bool) {
	b.mu.Lock()
	b.retrieval += d
	b.bytesRead += bytes
	if remote {
		b.bytesRemote += bytes
	}
	b.mu.Unlock()
}

// AddSync records emulated barrier/wait time.
func (b *Breakdown) AddSync(d time.Duration) {
	b.mu.Lock()
	b.sync += d
	b.mu.Unlock()
}

// AddRetry records one retried request and the emulated backoff spent
// before the retry.
func (b *Breakdown) AddRetry(backoff time.Duration) {
	b.mu.Lock()
	b.retries++
	b.backoff += backoff
	b.mu.Unlock()
}

// CountHeartbeatMiss records a peer declared stalled after missing its
// heartbeat deadline.
func (b *Breakdown) CountHeartbeatMiss() {
	b.mu.Lock()
	b.heartbeatMisses++
	b.mu.Unlock()
}

// CountCache records one chunk retrieval's cache outcome; bytes is
// the chunk size served from cache on a hit.
func (b *Breakdown) CountCache(hit bool, bytes int64) {
	b.mu.Lock()
	if hit {
		b.cacheHits++
		b.cacheBytes += bytes
	} else {
		b.cacheMisses++
	}
	b.mu.Unlock()
}

// AddPrefetch records one job whose chunk data was prefetched while a
// previous job computed; saved is the retrieval time the overlap hid
// from the critical path.
func (b *Breakdown) AddPrefetch(saved time.Duration) {
	b.mu.Lock()
	b.prefetched++
	b.prefetchSaved += saved
	b.mu.Unlock()
}

// CountPrefetchSkip records a prefetch forgone because the slave's
// in-flight byte budget was exhausted.
func (b *Breakdown) CountPrefetchSkip() {
	b.mu.Lock()
	b.prefetchSkips++
	b.mu.Unlock()
}

// CountAutotune records one fetch observed by an AIMD autotuner and
// the controller decision it closed: dec > 0 is an additive increase,
// dec < 0 a multiplicative back-off, 0 no epoch boundary.
func (b *Breakdown) CountAutotune(dec int) {
	b.mu.Lock()
	b.autotuneSamples++
	if dec > 0 {
		b.autotuneRaises++
	} else if dec < 0 {
		b.autotuneDrops++
	}
	b.mu.Unlock()
}

// CountHint records one prefetch-hint job received from the master and
// its outcome: warmed into the cache, or denied by the byte budget.
func (b *Breakdown) CountHint(warmed bool) {
	b.mu.Lock()
	b.hintsReceived++
	if warmed {
		b.hintsWarmed++
	} else {
		b.hintsDenied++
	}
	b.mu.Unlock()
}

// CountHintTrim records the master shrinking one slave's effective
// hint depth because its reported hint waste climbed.
func (b *Breakdown) CountHintTrim() {
	b.mu.Lock()
	b.hintTrims++
	b.mu.Unlock()
}

// CountCheckpoint records one partial-reduction checkpoint shipped to
// the master.
func (b *Breakdown) CountCheckpoint() {
	b.mu.Lock()
	b.checkpoints++
	b.mu.Unlock()
}

// CountCheckpointAdopt records the master merging a lost slave's last
// checkpoint; jobs is how many completed jobs the checkpoint covered —
// work that would otherwise have been re-executed.
func (b *Breakdown) CountCheckpointAdopt(jobs int) {
	b.mu.Lock()
	b.checkpointsAdopted++
	b.jobsRecovered += jobs
	b.mu.Unlock()
}

// CountRequeue records granted jobs returned to the queue after a
// slave loss — the re-execution cost of the loss.
func (b *Breakdown) CountRequeue(n int) {
	b.mu.Lock()
	b.jobsRequeued += n
	b.mu.Unlock()
}

// CountPreemptAbandon records in-flight jobs a warned slave abandoned
// because its warning window could not fit them.
func (b *Breakdown) CountPreemptAbandon(n int) {
	b.mu.Lock()
	b.jobsAbandoned += n
	b.mu.Unlock()
}

// CountPreemptWarn records one revocation warning.
func (b *Breakdown) CountPreemptWarn() {
	b.mu.Lock()
	b.preemptWarns++
	b.mu.Unlock()
}

// CountPreemptDrain records one accelerated drain that flushed its
// partial reduction before the hard kill landed.
func (b *Breakdown) CountPreemptDrain() {
	b.mu.Lock()
	b.preemptDrains++
	b.mu.Unlock()
}

// CountBuffer records one chunk read served through the site buffer
// tier: hit says whether the buffer had the chunk resident, bytes is
// the chunk size read.
func (b *Breakdown) CountBuffer(hit bool, bytes int64) {
	b.mu.Lock()
	if hit {
		b.bufferHits++
	} else {
		b.bufferMisses++
	}
	b.bufferBytes += bytes
	b.mu.Unlock()
}

// AddStaged records bytes the master staged into the site buffer ahead
// of slave demand.
func (b *Breakdown) AddStaged(bytes int64) {
	b.mu.Lock()
	b.stagedBytes += bytes
	b.mu.Unlock()
}

// AddObjectStream records one streamed reduction-object transfer:
// parts frames carrying bytes actual encoded bytes, against the
// object's est(imated) Reduction.Bytes() at ship time.
func (b *Breakdown) AddObjectStream(parts int, bytes, est int64) {
	b.mu.Lock()
	b.objectParts += parts
	b.objectBytes += bytes
	b.objectEstBytes += est
	b.mu.Unlock()
}

// CountCheckpointSkip records one checkpoint push elided because the
// encoded object was byte-identical to the previously acked one.
func (b *Breakdown) CountCheckpointSkip() {
	b.mu.Lock()
	b.checkpointSkips++
	b.mu.Unlock()
}

// AddMerge folds merge activity in: merges pairwise merge operations,
// busy the summed merge spans, tail the merge work left exposed after
// the last input arrived, and maxPar the peak concurrent mergers.
func (b *Breakdown) AddMerge(merges int, busy, tail time.Duration, maxPar int) {
	b.mu.Lock()
	b.merges += merges
	b.mergeBusy += busy
	b.mergeTail += tail
	if maxPar > b.mergeMaxPar {
		b.mergeMaxPar = maxPar
	}
	b.mu.Unlock()
}

// AddPool folds buffer-pool counters (gets and allocation misses) in.
func (b *Breakdown) AddPool(gets, misses int64) {
	b.mu.Lock()
	b.poolGets += gets
	b.poolMisses += misses
	b.mu.Unlock()
}

// CountJob records a completed job and whether its data was stolen
// from a remote site, along with the units it contained.
func (b *Breakdown) CountJob(stolen bool, units int64) {
	b.mu.Lock()
	b.jobsProcessed++
	if stolen {
		b.jobsStolen++
	}
	b.unitsReduced += units
	b.mu.Unlock()
}

// Merge folds other into b.
func (b *Breakdown) Merge(other *Breakdown) {
	if other == nil {
		return
	}
	b.AddSnapshot(other.Snapshot())
}

// AddSnapshot folds a previously captured snapshot into b.
func (b *Breakdown) AddSnapshot(s Snapshot) {
	b.mu.Lock()
	b.processing += s.Processing
	b.retrieval += s.Retrieval
	b.sync += s.Sync
	b.jobsProcessed += s.JobsProcessed
	b.jobsStolen += s.JobsStolen
	b.unitsReduced += s.UnitsReduced
	b.bytesRead += s.BytesRead
	b.bytesRemote += s.BytesRemote
	b.retries += s.Retries
	b.backoff += s.BackoffEmu
	b.heartbeatMisses += s.HeartbeatMisses
	b.cacheHits += s.CacheHits
	b.cacheMisses += s.CacheMisses
	b.cacheBytes += s.CacheBytesSaved
	b.prefetched += s.PrefetchedJobs
	b.prefetchSaved += s.PrefetchSavedEmu
	b.prefetchSkips += s.PrefetchSkips
	b.poolGets += s.PoolGets
	b.poolMisses += s.PoolMisses
	b.autotuneSamples += s.AutotuneSamples
	b.autotuneRaises += s.AutotuneRaises
	b.autotuneDrops += s.AutotuneDrops
	b.hintsReceived += s.HintsReceived
	b.hintsWarmed += s.HintsWarmed
	b.hintsDenied += s.HintsDenied
	b.hintTrims += s.HintTrims
	b.checkpoints += s.Checkpoints
	b.checkpointsAdopted += s.CheckpointsAdopted
	b.jobsRecovered += s.JobsRecovered
	b.jobsRequeued += s.JobsRequeued
	b.jobsAbandoned += s.JobsAbandoned
	b.preemptWarns += s.PreemptWarns
	b.preemptDrains += s.PreemptDrains
	b.bufferHits += s.BufferHits
	b.bufferMisses += s.BufferMisses
	b.bufferBytes += s.BufferBytes
	b.stagedBytes += s.StagedBytes
	b.objectParts += s.ObjectParts
	b.objectBytes += s.ObjectBytes
	b.objectEstBytes += s.ObjectEstBytes
	b.checkpointSkips += s.CheckpointSkips
	b.merges += s.Merges
	b.mergeBusy += s.MergeBusyEmu
	b.mergeTail += s.MergeTailEmu
	if s.MergeMaxPar > b.mergeMaxPar {
		b.mergeMaxPar = s.MergeMaxPar
	}
	b.mu.Unlock()
}

// Snapshot returns a copy of the current totals.
func (b *Breakdown) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Snapshot{
		Processing:       b.processing,
		Retrieval:        b.retrieval,
		Sync:             b.sync,
		JobsProcessed:    b.jobsProcessed,
		JobsStolen:       b.jobsStolen,
		UnitsReduced:     b.unitsReduced,
		BytesRead:        b.bytesRead,
		BytesRemote:      b.bytesRemote,
		Retries:          b.retries,
		BackoffEmu:       b.backoff,
		HeartbeatMisses:  b.heartbeatMisses,
		CacheHits:        b.cacheHits,
		CacheMisses:      b.cacheMisses,
		CacheBytesSaved:  b.cacheBytes,
		PrefetchedJobs:   b.prefetched,
		PrefetchSavedEmu: b.prefetchSaved,
		PrefetchSkips:    b.prefetchSkips,
		PoolGets:         b.poolGets,
		PoolMisses:       b.poolMisses,
		AutotuneSamples:  b.autotuneSamples,
		AutotuneRaises:   b.autotuneRaises,
		AutotuneDrops:    b.autotuneDrops,
		HintsReceived:    b.hintsReceived,
		HintsWarmed:      b.hintsWarmed,
		HintsDenied:      b.hintsDenied,
		HintTrims:        b.hintTrims,

		Checkpoints:        b.checkpoints,
		CheckpointsAdopted: b.checkpointsAdopted,
		JobsRecovered:      b.jobsRecovered,
		JobsRequeued:       b.jobsRequeued,
		JobsAbandoned:      b.jobsAbandoned,
		PreemptWarns:       b.preemptWarns,
		PreemptDrains:      b.preemptDrains,

		BufferHits:   b.bufferHits,
		BufferMisses: b.bufferMisses,
		BufferBytes:  b.bufferBytes,
		StagedBytes:  b.stagedBytes,

		ObjectParts:     b.objectParts,
		ObjectBytes:     b.objectBytes,
		ObjectEstBytes:  b.objectEstBytes,
		CheckpointSkips: b.checkpointSkips,
		Merges:          b.merges,
		MergeBusyEmu:    b.mergeBusy,
		MergeTailEmu:    b.mergeTail,
		MergeMaxPar:     b.mergeMaxPar,
	}
}

// Snapshot is an immutable copy of a Breakdown.
type Snapshot struct {
	Processing    time.Duration
	Retrieval     time.Duration
	Sync          time.Duration
	JobsProcessed int
	JobsStolen    int
	UnitsReduced  int64
	BytesRead     int64
	BytesRemote   int64

	Retries         int
	BackoffEmu      time.Duration
	HeartbeatMisses int

	CacheHits        int
	CacheMisses      int
	CacheBytesSaved  int64
	PrefetchedJobs   int
	PrefetchSavedEmu time.Duration
	PrefetchSkips    int
	PoolGets         int64
	PoolMisses       int64

	AutotuneSamples int
	AutotuneRaises  int
	AutotuneDrops   int
	HintsReceived   int
	HintsWarmed     int
	HintsDenied     int
	HintTrims       int

	Checkpoints        int
	CheckpointsAdopted int
	JobsRecovered      int
	JobsRequeued       int
	JobsAbandoned      int
	PreemptWarns       int
	PreemptDrains      int

	// New counters append here: the wire codec walks Snapshot fields in
	// declaration order and drops trailing unknowns, so appending keeps
	// mixed-version peers decoding each other.
	BufferHits   int
	BufferMisses int
	BufferBytes  int64
	StagedBytes  int64

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

// Add returns the component-wise sum of two snapshots.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		Processing:       s.Processing + o.Processing,
		Retrieval:        s.Retrieval + o.Retrieval,
		Sync:             s.Sync + o.Sync,
		JobsProcessed:    s.JobsProcessed + o.JobsProcessed,
		JobsStolen:       s.JobsStolen + o.JobsStolen,
		UnitsReduced:     s.UnitsReduced + o.UnitsReduced,
		BytesRead:        s.BytesRead + o.BytesRead,
		BytesRemote:      s.BytesRemote + o.BytesRemote,
		Retries:          s.Retries + o.Retries,
		BackoffEmu:       s.BackoffEmu + o.BackoffEmu,
		HeartbeatMisses:  s.HeartbeatMisses + o.HeartbeatMisses,
		CacheHits:        s.CacheHits + o.CacheHits,
		CacheMisses:      s.CacheMisses + o.CacheMisses,
		CacheBytesSaved:  s.CacheBytesSaved + o.CacheBytesSaved,
		PrefetchedJobs:   s.PrefetchedJobs + o.PrefetchedJobs,
		PrefetchSavedEmu: s.PrefetchSavedEmu + o.PrefetchSavedEmu,
		PrefetchSkips:    s.PrefetchSkips + o.PrefetchSkips,
		PoolGets:         s.PoolGets + o.PoolGets,
		PoolMisses:       s.PoolMisses + o.PoolMisses,
		AutotuneSamples:  s.AutotuneSamples + o.AutotuneSamples,
		AutotuneRaises:   s.AutotuneRaises + o.AutotuneRaises,
		AutotuneDrops:    s.AutotuneDrops + o.AutotuneDrops,
		HintsReceived:    s.HintsReceived + o.HintsReceived,
		HintsWarmed:      s.HintsWarmed + o.HintsWarmed,
		HintsDenied:      s.HintsDenied + o.HintsDenied,
		HintTrims:        s.HintTrims + o.HintTrims,

		Checkpoints:        s.Checkpoints + o.Checkpoints,
		CheckpointsAdopted: s.CheckpointsAdopted + o.CheckpointsAdopted,
		JobsRecovered:      s.JobsRecovered + o.JobsRecovered,
		JobsRequeued:       s.JobsRequeued + o.JobsRequeued,
		JobsAbandoned:      s.JobsAbandoned + o.JobsAbandoned,
		PreemptWarns:       s.PreemptWarns + o.PreemptWarns,
		PreemptDrains:      s.PreemptDrains + o.PreemptDrains,

		BufferHits:   s.BufferHits + o.BufferHits,
		BufferMisses: s.BufferMisses + o.BufferMisses,
		BufferBytes:  s.BufferBytes + o.BufferBytes,
		StagedBytes:  s.StagedBytes + o.StagedBytes,

		ObjectParts:     s.ObjectParts + o.ObjectParts,
		ObjectBytes:     s.ObjectBytes + o.ObjectBytes,
		ObjectEstBytes:  s.ObjectEstBytes + o.ObjectEstBytes,
		CheckpointSkips: s.CheckpointSkips + o.CheckpointSkips,
		Merges:          s.Merges + o.Merges,
		MergeBusyEmu:    s.MergeBusyEmu + o.MergeBusyEmu,
		MergeTailEmu:    s.MergeTailEmu + o.MergeTailEmu,
		MergeMaxPar:     maxInt(s.MergeMaxPar, o.MergeMaxPar),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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

func (s Snapshot) String() string {
	return fmt.Sprintf("proc=%v retr=%v sync=%v jobs=%d stolen=%d",
		s.Processing.Round(time.Millisecond), s.Retrieval.Round(time.Millisecond),
		s.Sync.Round(time.Millisecond), s.JobsProcessed, s.JobsStolen)
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
// run: chunk-cache effectiveness, prefetch overlap, and buffer-pool
// reuse, summed across every worker of every cluster.
type RetrievalReport struct {
	CacheHits        int           // chunk retrievals served from cache
	CacheMisses      int           // chunk retrievals that hit the store
	CacheBytesSaved  int64         // bytes not re-read from any store
	PrefetchedJobs   int           // jobs whose chunk arrived via prefetch
	PrefetchSavedEmu time.Duration // retrieval time hidden behind compute
	PrefetchSkips    int           // prefetches denied by the byte budget
	PoolGets         int64         // fetch buffers handed out by pools
	PoolMisses       int64         // pool gets that had to allocate

	AutotuneSamples int // fetches observed by AIMD fetch autotuners
	AutotuneRaises  int // autotuner additive thread-count increases
	AutotuneDrops   int // autotuner multiplicative back-offs
	HintsReceived   int // master prefetch hints received by slaves
	HintsWarmed     int // hint chunks warmed into caches ahead of grants
	HintsDenied     int // hints denied by the prefetch byte budget
	StealsCold      int // stolen grants whose chunks were cache-cold at the victim
	StealsWarm      int // stolen grants that took cache-warm victim chunks

	// Hint-quality feedback: hint chunks a slave warmed into its cache
	// that were never granted to any of its workers — warm bytes the
	// master's hint stream wasted on work that went elsewhere.
	WastedHints     int   // hinted-and-warmed chunks never granted
	WastedWarmBytes int64 // bytes warmed for those chunks
	HintTrims       int   // master cuts to slaves' effective hint depths

	// Site-buffer tier: reads slaves routed through the shared per-site
	// burst buffer, the master's staging ahead of demand, and the bytes
	// the buffer itself paid the backing store (the run's true S3
	// egress for buffered reads — everything above BufferBackingBytes
	// was absorbed by sharing).
	BufferHits         int   // buffered reads served from residency
	BufferMisses       int   // buffered reads that paid a backing fetch
	BufferBytes        int64 // bytes slaves read through the buffer
	StagedBytes        int64 // bytes staged by masters ahead of demand
	BufferBackingBytes int64 // bytes the buffer fetched from backing stores
}

// Any reports whether any pipeline activity was recorded.
func (r RetrievalReport) Any() bool {
	return r.CacheHits > 0 || r.CacheMisses > 0 || r.PrefetchedJobs > 0 ||
		r.PrefetchSkips > 0 || r.PoolGets > 0 || r.AutotuneSamples > 0 ||
		r.HintsReceived > 0 || r.StealsCold > 0 || r.StealsWarm > 0 ||
		r.BufferHits > 0 || r.BufferMisses > 0 || r.StagedBytes > 0
}

// Add folds another report in (summing a run sequence, e.g. the
// iterations of a multi-pass algorithm).
func (r *RetrievalReport) Add(o RetrievalReport) {
	r.CacheHits += o.CacheHits
	r.CacheMisses += o.CacheMisses
	r.CacheBytesSaved += o.CacheBytesSaved
	r.PrefetchedJobs += o.PrefetchedJobs
	r.PrefetchSavedEmu += o.PrefetchSavedEmu
	r.PrefetchSkips += o.PrefetchSkips
	r.PoolGets += o.PoolGets
	r.PoolMisses += o.PoolMisses
	r.AutotuneSamples += o.AutotuneSamples
	r.AutotuneRaises += o.AutotuneRaises
	r.AutotuneDrops += o.AutotuneDrops
	r.HintsReceived += o.HintsReceived
	r.HintsWarmed += o.HintsWarmed
	r.HintsDenied += o.HintsDenied
	r.StealsCold += o.StealsCold
	r.StealsWarm += o.StealsWarm
	r.WastedHints += o.WastedHints
	r.WastedWarmBytes += o.WastedWarmBytes
	r.HintTrims += o.HintTrims
	r.BufferHits += o.BufferHits
	r.BufferMisses += o.BufferMisses
	r.BufferBytes += o.BufferBytes
	r.StagedBytes += o.StagedBytes
	r.BufferBackingBytes += o.BufferBackingBytes
}

// AddSnapshot folds one worker snapshot's pipeline counters in.
func (r *RetrievalReport) AddSnapshot(s Snapshot) {
	r.CacheHits += s.CacheHits
	r.CacheMisses += s.CacheMisses
	r.CacheBytesSaved += s.CacheBytesSaved
	r.PrefetchedJobs += s.PrefetchedJobs
	r.PrefetchSavedEmu += s.PrefetchSavedEmu
	r.PrefetchSkips += s.PrefetchSkips
	r.PoolGets += s.PoolGets
	r.PoolMisses += s.PoolMisses
	r.AutotuneSamples += s.AutotuneSamples
	r.AutotuneRaises += s.AutotuneRaises
	r.AutotuneDrops += s.AutotuneDrops
	r.HintsReceived += s.HintsReceived
	r.HintsWarmed += s.HintsWarmed
	r.HintsDenied += s.HintsDenied
	r.HintTrims += s.HintTrims
	r.BufferHits += s.BufferHits
	r.BufferMisses += s.BufferMisses
	r.BufferBytes += s.BufferBytes
	r.StagedBytes += s.StagedBytes
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
	Mode          string // sync mode the run used (monolithic, streamed, ...)
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

// Any reports whether any sync activity was recorded.
func (s SyncReport) Any() bool {
	return s.Parts > 0 || s.StreamedBytes > 0 || s.Merges > 0 || s.CheckpointSkips > 0
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
