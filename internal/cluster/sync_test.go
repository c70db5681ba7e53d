package cluster

import (
	"strings"
	"testing"

	"cloudburst/internal/gr"
)

func TestResolveSyncMode(t *testing.T) {
	for _, tc := range []struct {
		mode     string
		streamed bool
		merge    gr.MergeMode
	}{
		{"", true, gr.MergeParallel},
		{SyncStreamedParallel, true, gr.MergeParallel},
		{SyncMonolithic, false, gr.MergeSerial},
	} {
		p, err := resolveSyncMode(tc.mode)
		if err != nil {
			t.Fatalf("%q: %v", tc.mode, err)
		}
		if p.streamed != tc.streamed || p.merge() != tc.merge {
			t.Fatalf("%q: streamed=%v merge=%v, want streamed=%v merge=%v",
				tc.mode, p.streamed, p.merge(), tc.streamed, tc.merge)
		}
	}
	// Removed modes fail loudly instead of falling back to the default.
	for _, mode := range []string{"streamed", "streamed-sharded", "bogus"} {
		_, err := resolveSyncMode(mode)
		if err == nil {
			t.Fatalf("%q accepted", mode)
		}
		for _, valid := range []string{SyncStreamedParallel, SyncMonolithic} {
			if !strings.Contains(err.Error(), valid) {
				t.Fatalf("%q: error %q does not name %q", mode, err, valid)
			}
		}
	}
}

func TestRunRejectsRemovedSyncMode(t *testing.T) {
	cfg, _ := fixture(t, 400, 2, 1, 1, 1)
	cfg.SyncMode = "streamed-sharded"
	res, err := Run(cfg)
	if err == nil || res != nil {
		t.Fatalf("Run = %v, %v; want a rejection", res, err)
	}
	if !strings.Contains(err.Error(), `"streamed-sharded"`) {
		t.Fatalf("error %q does not name the rejected mode", err)
	}
}
