package chunk

import (
	"fmt"
	"sync"
)

// Pool is the head node's global job pool, generated from the index
// (one job per chunk). It implements the paper's assignment policy:
//
//   - a requesting cluster first receives groups of *consecutive* jobs
//     from files stored at its own site, so slaves can read
//     sequentially ("the selection of consecutive jobs is an important
//     optimization"),
//   - once a cluster's local jobs are exhausted it is given remote
//     jobs (work stealing), chosen from the remote file that the
//     fewest readers are currently processing, to minimize file
//     contention among clusters,
//   - assigned jobs are tracked until completion so that jobs held by
//     a failed cluster can be requeued (fault-tolerance extension).
type Pool struct {
	mu   sync.Mutex
	idx  *Index
	opts PoolOptions

	// pending[f] is the sorted list of unassigned chunk IDs in file f.
	pending [][]int32
	// readers[f] counts outstanding (assigned, uncompleted) jobs in
	// file f; the min-contention heuristic uses it.
	readers []int
	// assigned maps an outstanding chunk ID to the site holding it.
	assigned map[int32]string
	// remaining counts pending + assigned jobs.
	remaining int

	// resident[site] is the latest reported set of chunk IDs warm in
	// that site's chunk caches. The steal heuristic prefers granting a
	// thief chunks that are cold at the victim, leaving warm chunks for
	// the victim's own (cheap, cache-hit) processing.
	resident map[string]map[int32]bool
	// stealsCold / stealsWarm count stolen grants by whether the chunk
	// was cold or warm in the victim's reported cache set.
	stealsCold int
	stealsWarm int
	// homeWarm / homeCold count local grants the same way against the
	// requester's own resident set — how often placement replays chunks
	// the site already holds (cache or staged burst buffer).
	homeWarm int
	homeCold int
}

// PoolOptions tune the assignment policy.
type PoolOptions struct {
	// Scatter disables the consecutive-job grouping optimization:
	// grants are spread across a file instead of taken as a
	// consecutive run. Exists for the ablation quantifying what
	// consecutive assignment buys (sequential storage access).
	Scatter bool
}

// NewPool builds a pool from the index with the default policy.
func NewPool(idx *Index) *Pool { return NewPoolWith(idx, PoolOptions{}) }

// NewPoolWith builds a pool with explicit policy options.
func NewPoolWith(idx *Index, opts PoolOptions) *Pool {
	p := &Pool{
		idx:      idx,
		opts:     opts,
		pending:  make([][]int32, len(idx.Files)),
		readers:  make([]int, len(idx.Files)),
		assigned: make(map[int32]string),
		resident: make(map[string]map[int32]bool),
	}
	for _, c := range idx.Chunks {
		p.pending[c.File] = append(p.pending[c.File], c.ID)
		p.remaining++
	}
	return p
}

// Index returns the index the pool was built from.
func (p *Pool) Index() *Index { return p.idx }

// Assignment is one granted job plus its stealing status.
type Assignment struct {
	Chunk  Chunk
	Stolen bool
}

// Acquire grants up to max jobs to the requesting site. Local jobs
// (data at the requester's site) are preferred; when none remain,
// remote jobs are granted from the least-contended remote file and
// marked stolen. It returns nil when no jobs remain unassigned.
func (p *Pool) Acquire(site string, max int) []Assignment {
	if max <= 0 {
		max = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	// Pass 1: local files with pending jobs. Among them, prefer a file
	// whose next pending chunk is already warm at the requesting site
	// (chunk cache or staged burst buffer): on iteration N+1 this
	// replays iteration N's placement, so the resident bytes are the
	// ones actually granted instead of aging out unused. Falls back to
	// the first local file when nothing pending is warm.
	firstLocal := -1
	warm := p.resident[site]
	for f := range p.pending {
		if p.idx.Files[f].Site != site || len(p.pending[f]) == 0 {
			continue
		}
		if firstLocal == -1 {
			firstLocal = f
		}
		if warm[p.pending[f][0]] {
			return p.takeLocked(f, site, max, false)
		}
	}
	if firstLocal != -1 {
		return p.takeLocked(firstLocal, site, max, false)
	}
	// Pass 2: remote file with the minimum number of active readers.
	best := -1
	for f := range p.pending {
		if p.idx.Files[f].Site == site || len(p.pending[f]) == 0 {
			continue
		}
		if best == -1 || p.readers[f] < p.readers[best] {
			best = f
		}
	}
	if best == -1 {
		return nil
	}
	return p.takeLocked(best, site, max, true)
}

// takeLocked removes up to max chunk IDs from file f's pending list
// and records the assignment. The default policy takes a consecutive
// run from the front (the paper's sequential-read optimization); the
// Scatter ablation spreads the grant across the file instead.
func (p *Pool) takeLocked(f int, site string, max int, stolen bool) []Assignment {
	ids := p.pending[f]
	var granted []int32
	if p.opts.Scatter {
		n := max
		if n > len(ids) {
			n = len(ids)
		}
		stride := len(ids) / n
		if stride < 1 {
			stride = 1
		}
		taken := make([]bool, len(ids))
		for i := 0; i < len(ids) && len(granted) < n; i += stride {
			taken[i] = true
			granted = append(granted, ids[i])
		}
		for i := 0; i < len(ids) && len(granted) < n; i++ {
			if !taken[i] {
				taken[i] = true
				granted = append(granted, ids[i])
			}
		}
		rest := make([]int32, 0, len(ids)-len(granted))
		for i, id := range ids {
			if !taken[i] {
				rest = append(rest, id)
			}
		}
		p.pending[f] = rest
	} else {
		// Consecutive run from the front — except for stolen grants,
		// where the run starts at the first chunk that is cold in the
		// victim's cache and extends only through cold chunks: warm
		// chunks stay home where they are cache hits.
		start := 0
		warm := map[int32]bool(nil)
		if stolen {
			warm = p.resident[p.idx.Files[f].Site]
			for start < len(ids) && warm[ids[start]] {
				start++
			}
			if start == len(ids) {
				start = 0 // everything warm: fall back to the front
				warm = nil
			}
		}
		n := 1
		for n < max && start+n < len(ids) && ids[start+n] == ids[start+n-1]+1 &&
			!warm[ids[start+n]] {
			n++
		}
		granted = ids[start : start+n]
		p.pending[f] = append(ids[:start:start], ids[start+n:]...)
	}
	victim := p.resident[p.idx.Files[f].Site]
	out := make([]Assignment, 0, len(granted))
	for _, id := range granted {
		p.assigned[id] = site
		p.readers[f]++
		if stolen {
			if victim[id] {
				p.stealsWarm++
			} else {
				p.stealsCold++
			}
		} else if victim[id] {
			p.homeWarm++
		} else {
			p.homeCold++
		}
		out = append(out, Assignment{Chunk: p.idx.Chunks[id], Stolen: stolen})
	}
	return out
}

// SetResident replaces the reported set of cache-resident chunk IDs
// for site. Slaves report residency with each job request; the head
// folds the per-cluster union here so stolen grants can steer away
// from chunks the victim already has warm. Nil or empty clears it.
func (p *Pool) SetResident(site string, ids []int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(ids) == 0 {
		delete(p.resident, site)
		return
	}
	set := make(map[int32]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	p.resident[site] = set
}

// StealStats reports how many stolen grants took chunks that were cold
// vs. warm in the victim site's reported cache set.
func (p *Pool) StealStats() (cold, warm int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stealsCold, p.stealsWarm
}

// HomeStats reports how many local grants handed a site chunks that
// were cold vs. warm in its own reported resident set.
func (p *Pool) HomeStats() (cold, warm int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.homeCold, p.homeWarm
}

// Complete acknowledges finished jobs, releasing their reader counts.
// Unknown or already-completed IDs are an error (double completion
// indicates a protocol bug).
func (p *Pool) Complete(ids []int32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		if _, ok := p.assigned[id]; !ok {
			return fmt.Errorf("chunk: completion of unassigned job %d", id)
		}
		delete(p.assigned, id)
		p.readers[p.idx.Chunks[id].File]--
		p.remaining--
	}
	return nil
}

// RequeueSite returns every outstanding job assigned to site to the
// pending lists (used when a cluster dies). It reports how many jobs
// were requeued.
func (p *Pool) RequeueSite(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for id, s := range p.assigned {
		if s != site {
			continue
		}
		delete(p.assigned, id)
		f := p.idx.Chunks[id].File
		p.readers[f]--
		p.pending[f] = insertSorted(p.pending[f], id)
		n++
	}
	return n
}

// Remaining reports pending + outstanding jobs.
func (p *Pool) Remaining() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remaining
}

// Unassigned reports how many jobs no site holds: pending, never
// granted or requeued.
func (p *Pool) Unassigned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remaining - len(p.assigned)
}

// Done reports whether every job has been completed.
func (p *Pool) Done() bool { return p.Remaining() == 0 }

// PendingAt reports how many unassigned jobs have their data at site.
func (p *Pool) PendingAt(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for f := range p.pending {
		if p.idx.Files[f].Site == site {
			n += len(p.pending[f])
		}
	}
	return n
}

func insertSorted(ids []int32, id int32) []int32 {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ids = append(ids, 0)
	copy(ids[lo+1:], ids[lo:])
	ids[lo] = id
	return ids
}
