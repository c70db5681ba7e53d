package cluster

import (
	"fmt"
	"io"

	"cloudburst/internal/gr"
	"cloudburst/internal/wire"
)

// Sync modes: how reduction objects travel upstream, how each
// receiver merges them, and how the final gets back down. The empty
// string resolves to the streamed parallel default: objects ship as
// bounded KindObjectPart streams, each receiver folds arrivals on a
// worker-pool merge tree as they land, and the final is delivered by
// the exchange (see Head.electLaggard). "monolithic" keeps the paper
// runtime's behavior — whole objects in single frames, merged serially
// after an all-arrivals barrier, the final broadcast to every master —
// as the measured baseline.
const (
	SyncMonolithic       = "monolithic"
	SyncStreamedParallel = "streamed-parallel"
)

// syncPlan is a resolved sync mode. The merge strategy follows from
// streamed: streamed receivers merge in parallel, monolithic ones
// serially.
type syncPlan struct {
	name     string
	streamed bool
}

// merge returns the receivers' merge strategy.
func (p syncPlan) merge() gr.MergeMode {
	if p.streamed {
		return gr.MergeParallel
	}
	return gr.MergeSerial
}

// mergeWorkers is the modeled head/master node's merge fan-out (the
// paper's nodes are 8-core machines). It deliberately does not follow
// the emulation host's GOMAXPROCS: emulated merge costs are clock
// sleeps, which overlap across goroutines however few host cores back
// them, so a 1-core test host can still emulate an 8-way merge.
const mergeWorkers = 8

func resolveSyncMode(mode string) (syncPlan, error) {
	switch mode {
	case "", SyncStreamedParallel:
		return syncPlan{name: SyncStreamedParallel, streamed: true}, nil
	case SyncMonolithic:
		return syncPlan{name: SyncMonolithic}, nil
	}
	return syncPlan{}, fmt.Errorf("cluster: unknown sync mode %q (want %s or %s)", mode, SyncStreamedParallel, SyncMonolithic)
}

// objectCollector incrementally decodes streamed reduction objects
// arriving on one connection, one object at a time: feed consumes
// KindObjectPart messages on the receive loop while a decode goroutine
// drains the bridged reader, so decode overlaps the transfer still in
// flight and the full encoded object is never materialized. take joins
// the decode once the stream's terminal message arrives and resets the
// collector for the connection's next object. Each object decodes into
// storage the receiver's merger lends (Merger.Spare): an object it has
// already absorbed when one is free.
type objectCollector struct {
	merger *gr.Merger
	conn   *wire.Conn
	stream *wire.ObjectStream
	resCh  chan collectResult
}

type collectResult struct {
	obj gr.Reduction
	err error
}

// feed consumes one KindObjectPart, starting the decode goroutine on
// the stream's first part. The part's pooled Data buffer is recycled
// once the pipe has absorbed it.
func (oc *objectCollector) feed(m *wire.Message) error {
	if oc.stream == nil {
		oc.stream = wire.NewObjectStream()
		oc.resCh = make(chan collectResult, 1)
		go func(s *wire.ObjectStream, ch chan collectResult) {
			obj := oc.merger.Spare()
			err := obj.Decode(s.Reader())
			if err != nil {
				obj = nil
				// Poison the pipe so the feeder stops pushing parts into a
				// dead decoder instead of blocking forever.
				s.Abort(err)
			} else {
				// Drain trailing bytes (none expected) so a decoder that
				// stopped short can never block the final parts.
				_, _ = io.Copy(io.Discard, s.Reader())
			}
			ch <- collectResult{obj: obj, err: err}
		}(oc.stream, oc.resCh)
	}
	_, err := oc.stream.Feed(m)
	if m.Data != nil && oc.conn != nil {
		// The pipe write completed (the decoder copied the bytes), so the
		// part buffer can go straight back to the pool.
		oc.conn.Recycle(m.Data)
	}
	return err
}

// pending reports whether a stream is mid-flight.
func (oc *objectCollector) pending() bool { return oc.stream != nil }

// take returns the decoded object after the stream's terminal message,
// plus the stream's frame and byte counts, resetting the collector.
func (oc *objectCollector) take() (gr.Reduction, int, int64, error) {
	if oc.stream == nil {
		return nil, 0, 0, fmt.Errorf("cluster: terminal message named a streamed object but no parts arrived")
	}
	res := <-oc.resCh
	parts, bytes := oc.stream.Frames(), oc.stream.Bytes()
	oc.stream, oc.resCh = nil, nil
	return res.obj, parts, bytes, res.err
}

// abort poisons a mid-flight stream (connection died between parts)
// and joins the decode goroutine so it cannot leak. A no-op when no
// stream is pending.
func (oc *objectCollector) abort(err error) {
	if oc.stream == nil {
		return
	}
	oc.stream.Abort(err)
	<-oc.resCh
	oc.stream, oc.resCh = nil, nil
}

// takeObject resolves a terminal message's reduction object: the
// single-frame Object when present (monolithic mode), otherwise the
// connection's just-completed part stream.
func takeObject(app gr.App, oc *objectCollector, req *wire.Message) (gr.Reduction, error) {
	if req.Object != nil {
		return gr.DecodeReduction(app, req.Object)
	}
	obj, _, _, err := oc.take()
	return obj, err
}

// hashBytes is FNV-1a over the encoded object — the cheap identity
// check behind checkpoint-cadence dedup.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
