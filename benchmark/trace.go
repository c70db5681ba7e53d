package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"cloudburst"
)

// span is one traced interval: run -> iter -> store.read. Spans of one
// run share its id; times are offsets from the run's start.
type span struct {
	Name   string
	Run    int64
	ID     int
	Parent int // span id, -1 for the run span
	Site   string
	Source string
	Bytes  int
	Iter   int // iteration number, on iter spans
	Start  time.Duration
	End    time.Duration
	Failed bool
}

// tracer keeps one run's spans in memory. A nil *tracer is tracing
// switched off: every method is a no-op and wrap hands back the bare
// store, so untraced runs execute no benchmark code on the read path.
type tracer struct {
	run   int64
	start time.Time

	mu    sync.Mutex
	spans []span
	iter  int // span id of the current iteration, 0 before the first
}

func (t *tracer) begin(start time.Time) {
	if t == nil {
		return
	}
	t.start = start
	t.iter = 0
	t.spans = append(t.spans[:0], span{Name: "run", Run: t.run, ID: 0, Parent: -1})
}

func (t *tracer) end(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeIter(now)
	t.spans[0].End = now.Sub(t.start)
}

// closeIter ends the current iteration span, if one is open. The
// caller holds t.mu.
func (t *tracer) closeIter(now time.Time) {
	if t.iter > 0 && t.spans[t.iter].End == 0 {
		t.spans[t.iter].End = now.Sub(t.start)
	}
}

// beginIter closes the previous iteration span and opens the next.
// Iterations run one after another, so reads attach to the latest.
func (t *tracer) beginIter(n int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeIter(now)
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: "iter", Run: t.run, ID: id, Parent: 0, Iter: n, Start: now.Sub(t.start)})
	t.iter = id
}

// wrap decorates the store view through which site reads source's data.
func (t *tracer) wrap(site, source string, st cloudburst.Store) cloudburst.Store {
	if t == nil {
		return st
	}
	return &tracedStore{Store: st, t: t, site: site, source: source}
}

// tracedStore records a span around every ReadAt; Size and List pass
// through.
type tracedStore struct {
	cloudburst.Store
	t            *tracer
	site, source string
}

func (s *tracedStore) ReadAt(name string, p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := s.Store.ReadAt(name, p, off)
	end := time.Now()
	t := s.t
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: "store.read", Run: t.run, ID: len(t.spans), Parent: t.iter,
		Site: s.site, Source: s.source, Bytes: n,
		Start: start.Sub(t.start), End: end.Sub(t.start),
		Failed: err != nil && err != io.EOF,
	})
	t.mu.Unlock()
	return n, err
}

// readTotals sums the store.read spans.
func (t *tracer) readTotals() (reads, failed int, bytes int64, busy time.Duration) {
	for _, s := range t.spans {
		if s.Name != "store.read" {
			continue
		}
		reads++
		bytes += int64(s.Bytes)
		busy += s.End - s.Start
		if s.Failed {
			failed++
		}
	}
	return
}

// writeChromeTrace writes the spans in the Trace Event format that
// chrome://tracing and Perfetto load. Each (site <- source) view is a
// process; reads that overlap are spread over as many thread lanes as
// needed, since complete events on one lane must nest.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	pids := map[string]int{"": 0}
	laneEnds := map[int][]time.Duration{}
	events := []event{{Name: "process_name", Ph: "M", Args: map[string]any{"name": "benchmark"}}}
	for _, s := range spans {
		view := ""
		if s.Name == "store.read" {
			view = s.Site + " <- " + s.Source
		}
		pid, ok := pids[view]
		if !ok {
			pid = len(pids)
			pids[view] = pid
			events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": view}})
		}
		lane := 0
		if view != "" {
			ends := laneEnds[pid]
			for lane < len(ends) && ends[lane] > s.Start {
				lane++
			}
			if lane == len(ends) {
				ends = append(ends, 0)
			}
			ends[lane] = s.End
			laneEnds[pid] = ends
		} else if s.Name == "iter" {
			lane = 1
		}
		args := map[string]any{"run": s.Run, "id": s.ID, "parent": s.Parent}
		switch s.Name {
		case "store.read":
			args["site"], args["source"], args["bytes"], args["failed"] = s.Site, s.Source, s.Bytes, s.Failed
		case "iter":
			args["iteration"] = s.Iter
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: pid, Tid: lane, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
