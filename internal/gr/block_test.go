package gr

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cloudburst/internal/metrics"
	"cloudburst/internal/netsim"
)

// blockSumRed is sumRed plus the optional block fast path. It records
// the size of every group it is handed and can fail on a given call.
type blockSumRed struct {
	sumRed
	groups  []int // bytes per UpdateBlock call
	updates int   // per-unit Update calls: must stay 0 under the engine
	failAt  int   // 1-based UpdateBlock call that errors; 0 never
}

func (b *blockSumRed) Update(unit []byte) error {
	b.updates++
	return b.sumRed.Update(unit)
}

func (b *blockSumRed) UpdateBlock(units []byte) error {
	b.groups = append(b.groups, len(units))
	if b.failAt == len(b.groups) {
		return errors.New("boom")
	}
	for u := 0; u < len(units); u += 4 {
		if err := b.sumRed.Update(units[u : u+4]); err != nil {
			return err
		}
	}
	return nil
}

// failingRed errors on its n-th per-unit Update.
type failingRed struct {
	sumRed
	n int
}

func (f *failingRed) Update(unit []byte) error {
	if f.n--; f.n == 0 {
		return errors.New("boom")
	}
	return f.sumRed.Update(unit)
}

// countingClock is the instant clock counting Now calls: the pacer
// makes exactly one per Begin and one per End.
type countingClock struct {
	netsim.Clock
	nows int
}

func (c *countingClock) Now() time.Time {
	c.nows++
	return c.Clock.Now()
}

// TestProcessChunkBlockPath: a reduction with UpdateBlock is handed one
// call per paced group — same group boundaries, unit count, pacer
// Begin/End pairs and charged processing time as the per-unit loop —
// and reaches the same state; one without it never leaves that loop.
func TestProcessChunkBlockPath(t *testing.T) {
	const n = 10_000
	data, want := sumData(n, 3)
	for _, group := range []int{1, 3, 4096, 1 << 20} {
		groups := (n + group - 1) / group
		run := func(red Reduction) (int, *countingClock, metrics.Snapshot) {
			t.Helper()
			clk := &countingClock{Clock: netsim.Instant()}
			stats := &metrics.Breakdown{}
			e := NewEngine(sumApp{cost: time.Microsecond}, EngineOptions{GroupUnits: group, Clock: clk, Stats: stats})
			units, err := e.ProcessChunk(red, data)
			if err != nil {
				t.Fatal(err)
			}
			return units, clk, stats.Snapshot()
		}

		block := &blockSumRed{}
		bUnits, bClk, bStats := run(block)
		plain := &sumRed{}
		pUnits, pClk, pStats := run(plain)

		if bUnits != n || pUnits != n {
			t.Fatalf("group %d: units block=%d per-unit=%d, want %d", group, bUnits, pUnits, n)
		}
		if block.sumRed != *plain || plain.Sum != want {
			t.Fatalf("group %d: block state %+v, per-unit %+v, want sum %d", group, block.sumRed, *plain, want)
		}
		if block.updates != 0 || len(block.groups) != groups {
			t.Fatalf("group %d: %d UpdateBlock and %d Update calls, want %d and 0", group, len(block.groups), block.updates, groups)
		}
		for i, sz := range block.groups {
			wantSz := group * 4
			if i == groups-1 {
				wantSz = len(data) - i*group*4
			}
			if sz != wantSz {
				t.Fatalf("group %d: call %d got %d bytes, want %d", group, i, sz, wantSz)
			}
		}
		// One Begin and one End (so one AddProcessing) per group on
		// both paths, charging the same modelled time.
		if bClk.nows != 2*groups || pClk.nows != 2*groups {
			t.Fatalf("group %d: clock reads block=%d per-unit=%d, want %d", group, bClk.nows, pClk.nows, 2*groups)
		}
		if bStats.Processing != pStats.Processing || bStats.Processing != n*time.Microsecond {
			t.Fatalf("group %d: processing block=%v per-unit=%v", group, bStats.Processing, pStats.Processing)
		}
	}
}

// TestProcessChunkBlockPathErrors: the block path rejects a ragged
// chunk before touching the reduction and wraps a reduction error
// exactly as the per-unit loop does.
func TestProcessChunkBlockPathErrors(t *testing.T) {
	e := NewEngine(sumApp{}, EngineOptions{GroupUnits: 8})
	data, _ := sumData(100, 4)

	block := &blockSumRed{}
	if _, err := e.ProcessChunk(block, data[:len(data)-1]); err == nil || !strings.Contains(err.Error(), "not a multiple of record size") {
		t.Fatalf("ragged chunk: err = %v", err)
	}
	if len(block.groups) != 0 {
		t.Fatalf("ragged chunk reached UpdateBlock %d times", len(block.groups))
	}

	block = &blockSumRed{failAt: 3}
	units, bErr := e.ProcessChunk(block, data)
	if units != 0 || bErr == nil {
		t.Fatalf("failing block: units=%d err=%v", units, bErr)
	}
	_, pErr := e.ProcessChunk(&failingRed{n: 17}, data)
	if pErr == nil || bErr.Error() != pErr.Error() || bErr.Error() != "gr: local reduction: boom" {
		t.Fatalf("error wrapping differs: block %q, per-unit %q", bErr, pErr)
	}
	if len(block.groups) != 3 {
		t.Fatalf("engine kept going after the failed group: %d calls", len(block.groups))
	}
}
