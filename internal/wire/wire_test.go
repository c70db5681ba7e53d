package wire

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cloudburst/internal/metrics"
)

func connPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var server net.Conn
	done := make(chan struct{})
	go func() {
		server, _ = ln.Accept()
		close(done)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	t.Cleanup(func() { client.Close(); server.Close() })
	return NewConn(client), NewConn(server)
}

func TestSendRecvRoundTrip(t *testing.T) {
	a, b := connPair(t)
	want := &Message{
		Kind:  KindJobs,
		Site:  "local",
		Cores: 16,
		Jobs: []JobAssign{
			{Chunk: 7, File: "data-03.bin", Offset: 4096, Length: 65536, Units: 2048, HomeSite: "cloud", Stolen: true},
			{Chunk: 8, File: "data-03.bin", Offset: 69632, Length: 65536, Units: 2048, HomeSite: "cloud"},
		},
		Done:   false,
		Object: []byte{1, 2, 3, 4},
	}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestEmptyResidentReportSurvivesCodec(t *testing.T) {
	// An empty residency report ("cache enabled but drained") must stay
	// distinguishable from no report at all (nil, cache disabled):
	// without the distinction a drained cache could never clear its
	// stale warm set upstream. The binary codec's presence bits carry it.
	t.Run("binary", func(t *testing.T) {
		a, b := connPair(t)
		if err := a.Send(&Message{Kind: KindRequestJob, Resident: []int32{}}); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Resident == nil {
			t.Fatal("non-nil empty Resident report collapsed to nil in transit")
		}
		if len(got.Resident) != 0 {
			t.Fatalf("Resident = %v, want empty", got.Resident)
		}

		// And the inverse: nil must stay nil, not become empty.
		if err := a.Send(&Message{Kind: KindRequestJob}); err != nil {
			t.Fatal(err)
		}
		if got, err = b.Recv(); err != nil {
			t.Fatal(err)
		}
		if got.Resident != nil {
			t.Fatalf("nil Resident became %v in transit", got.Resident)
		}
	})
}

func TestCallRequestResponse(t *testing.T) {
	a, b := connPair(t)
	go func() {
		req, err := b.Recv()
		if err != nil {
			return
		}
		b.Send(&Message{Kind: KindStatResp, Len: 12345, File: req.File})
	}()
	resp, err := a.Call(&Message{Kind: KindStat, File: "data-00.bin"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Len != 12345 || resp.File != "data-00.bin" {
		t.Fatalf("bad response: %+v", resp)
	}
}

func TestCallSurfacesRemoteError(t *testing.T) {
	a, b := connPair(t)
	go func() {
		b.Recv()
		b.Send(&Message{Kind: KindError, Err: "no such file"})
	}()
	_, err := a.Call(&Message{Kind: KindStat, File: "missing"})
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentSendersFramesIntact(t *testing.T) {
	a, b := connPair(t)
	const senders = 8
	const perSender = 50
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				msg := &Message{Kind: KindAck, Cores: id, Max: j, Data: make([]byte, 1000+id)}
				if err := a.Send(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	got := 0
	recvDone := make(chan error, 1)
	go func() {
		for got < senders*perSender {
			m, err := b.Recv()
			if err != nil {
				recvDone <- err
				return
			}
			if m.Kind != KindAck || len(m.Data) != 1000+m.Cores {
				recvDone <- &net.AddrError{Err: "corrupt frame", Addr: ""}
				return
			}
			got++
		}
		recvDone <- nil
	}()
	wg.Wait()
	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver stalled")
	}
}

func TestRecvAfterCloseErrors(t *testing.T) {
	a, b := connPair(t)
	a.Close()
	if _, err := b.Recv(); err == nil {
		t.Fatal("recv on closed conn should fail")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	a, b := connPair(t)
	want := &Message{
		Kind: KindClusterResult,
		Site: "cloud",
		Stats: Stats{
			Breakdown: metrics.Snapshot{
				Processing:    90 * time.Second,
				Retrieval:     30 * time.Second,
				Sync:          5 * time.Second,
				JobsProcessed: 480,
				JobsStolen:    64,
				UnitsReduced:  1 << 20,
				BytesRead:     60 << 20,
				BytesRemote:   20 << 20,
			},
			IdleEmu: int64(16 * time.Second),
			WallEmu: int64(125 * time.Second),
		},
	}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("stats mismatch:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	// The checkpoint push carries the ordering sequence, the encoded
	// partial reduction, and its cumulative covered set; the hint-waste
	// ledger rides the same struct on KindRequestJob. All must survive
	// the codec exactly — a dropped Seq would let a stale checkpoint
	// roll a newer one back.
	a, b := connPair(t)
	want := &Message{
		Kind:      KindCheckpoint,
		Seq:       7,
		Object:    []byte{9, 8, 7},
		Completed: []int32{3, 1, 12},
		Stats: Stats{
			Breakdown: metrics.Snapshot{JobsProcessed: 3, Checkpoints: 7},
		},
		HintWasteChunks: 5,
		HintWasteBytes:  5 << 16,
	}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestKindString(t *testing.T) {
	if KindJobs.String() != "jobs" {
		t.Errorf("KindJobs = %q", KindJobs)
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Errorf("unknown kind = %q", Kind(200))
	}
}

// Property: any message with random payload fields survives the frame
// codec bit-exactly.
func TestMessageRoundTripProperty(t *testing.T) {
	a, b := connPair(t)
	f := func(site string, cores int32, data []byte, done bool, chunk int32, off int64) bool {
		want := &Message{
			Kind: KindReadResp, Site: site, Cores: int(cores), Data: data, Done: done,
			Jobs: []JobAssign{{Chunk: chunk, Offset: off}},
		}
		if err := a.Send(want); err != nil {
			return false
		}
		got, err := b.Recv()
		if err != nil {
			return false
		}
		// The binary codec preserves nil vs. empty exactly — no
		// normalization needed.
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	a, b := connPair(t)
	// Hand-craft a bogus header claiming a > MaxFrame frame.
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	go a.c.Write(raw)
	if _, err := b.Recv(); err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("err = %v", err)
	}
}

func TestIdleTimeoutTripsRecv(t *testing.T) {
	a, b := connPair(t)
	_ = a
	b.SetIdleTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err := b.Recv()
	if err == nil {
		t.Fatal("Recv on a silent peer should time out")
	}
	if !IsTimeout(err) {
		t.Fatalf("expected timeout classification, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout fired far too late")
	}
}

func TestHeartbeatsKeepIdleConnAlive(t *testing.T) {
	a, b := connPair(t)
	b.SetIdleTimeout(120 * time.Millisecond)
	stop := Heartbeats(a, 30*time.Millisecond)
	defer stop()

	// The sender issues no requests, but the heartbeats must keep every
	// Recv within the idle window for several windows in a row.
	deadline := time.Now().Add(400 * time.Millisecond)
	beats := 0
	for time.Now().Before(deadline) {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("idle conn with heartbeats timed out after %d beats: %v", beats, err)
		}
		if m.Kind != KindHeartbeat {
			t.Fatalf("unexpected %v", m.Kind)
		}
		beats++
	}
	if beats < 3 {
		t.Fatalf("only %d heartbeats in 400ms at 30ms interval", beats)
	}
}

func TestHeartbeatsStopIsIdempotent(t *testing.T) {
	a, _ := connPair(t)
	stop := Heartbeats(a, time.Hour)
	stop()
	stop()
}

func TestHeartbeatSenderDeathIsObservable(t *testing.T) {
	// A heartbeat sender that dies on a failed send used to exit its
	// goroutine silently; it must now bump the process-wide counter and
	// emit a log line, so the death shows up before the peer's idle
	// timeout declares this side lost.
	a, b := connPair(t)
	before := metrics.HeartbeatSenderStops()
	logged := make(chan string, 4)
	stop := HeartbeatsWith(a, 10*time.Millisecond, func(format string, args ...any) {
		select {
		case logged <- format:
		default:
		}
	})
	defer stop()
	// Kill the transport out from under the sender.
	a.Close()
	b.Close()
	select {
	case msg := <-logged:
		if !strings.Contains(msg, "heartbeat") {
			t.Fatalf("log line %q does not mention heartbeats", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat sender death never logged")
	}
	if after := metrics.HeartbeatSenderStops(); after <= before {
		t.Fatalf("stop counter did not advance: before=%d after=%d", before, after)
	}
}

func TestHeartbeatsDeliberateStopNotCounted(t *testing.T) {
	// stop() racing the ticker must not register as a death: the owner
	// tore the connection down on purpose.
	a, _ := connPair(t)
	before := metrics.HeartbeatSenderStops()
	stop := Heartbeats(a, time.Hour)
	stop()
	a.Close()
	time.Sleep(20 * time.Millisecond)
	if after := metrics.HeartbeatSenderStops(); after != before {
		t.Fatalf("deliberate stop counted as a death: before=%d after=%d", before, after)
	}
}

func TestCallReturnsTypedRemoteError(t *testing.T) {
	a, b := connPair(t)
	go func() {
		b.Recv()
		b.Send(&Message{Kind: KindError, Err: "faults: SlowDown: request throttled"})
	}()
	_, err := a.Call(&Message{Kind: KindStat, File: "x"})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("expected *RemoteError, got %T: %v", err, err)
	}
	if !strings.Contains(re.Msg, "SlowDown") {
		t.Fatalf("message lost: %q", re.Msg)
	}
}
