package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudburst/internal/faults"
	"cloudburst/internal/netsim"
)

// Tests for the copy-free chunk-reply path: the vectored write on the
// sending side and RecvInto's direct read on the receiving side.

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31) + seed
	}
	return b
}

// frameOf is the frame Send must put on the wire for m: Encode's bytes
// behind their length.
func frameOf(t testing.TB, m *Message, codec Codec) []byte {
	t.Helper()
	payload, err := Encode(nil, m, codec)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// guarded returns a dst of n bytes with 32 guard bytes either side and
// a check that nothing outside dst was written.
func guarded(t testing.TB, n int) (dst []byte, intact func()) {
	t.Helper()
	const guard = 32
	buf := bytes.Repeat([]byte{0xA5}, n+2*guard)
	dst = buf[guard : guard+n : guard+n]
	return dst, func() {
		t.Helper()
		for i, b := range buf {
			if (i < guard || i >= guard+n) && b != 0xA5 {
				t.Fatalf("guard byte %d overwritten", i-guard)
			}
		}
	}
}

// TestVectoredFrameGolden: a chunk reply leaves a raw TCP connection
// as head + Data in one writev, and the bytes captured off the socket
// are exactly the frame Encode produces, with Done and Hit in every
// combination — so daemons with and without the vectored write
// interoperate in both directions.
func TestVectoredFrameGolden(t *testing.T) {
	a, b := connPair(t)
	if a.tcp == nil {
		t.Fatal("a loopback TCP connection must take the vectored path")
	}
	data := pattern(64<<10, 1)
	for _, flags := range []struct{ done, hit bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		m := &Message{Kind: KindReadResp, Data: data, Done: flags.done, Hit: flags.hit}
		if !isBulkRead(m) {
			t.Fatal("test message does not qualify for the vectored write")
		}
		want := frameOf(t, m, CodecBinary)
		errc := make(chan error, 1)
		go func() { errc <- a.Send(m) }()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(b.c, got); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("done=%v hit=%v: vectored frame differs from Encode's", flags.done, flags.hit)
		}
	}
	// The frame was never assembled: connection scratch holds the head.
	if cap(a.wbuf) >= len(data) {
		t.Fatalf("Data was copied into a %d-byte frame buffer", cap(a.wbuf))
	}
	// And a Conn on the other end decodes it like any frame.
	go a.Send(&Message{Kind: KindReadResp, Data: data, Done: true})
	got, err := b.Recv()
	if err != nil || !got.Done || !bytes.Equal(got.Data, data) {
		t.Fatalf("Recv of a vectored frame: %v", err)
	}
}

// recordingConn counts Write calls on their way to the real socket.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// TestWrappedConnsKeepOneWritePerSend: anything that is not a raw TCP
// socket — a plain wrapper, a netsim.ShapedConn — sees exactly one
// Write per Send, bulk reply or not, so link latency and the fault
// plan are charged once per message.
func TestWrappedConnsKeepOneWritePerSend(t *testing.T) {
	bulk := &Message{Kind: KindReadResp, Data: pattern(256<<10, 2)}
	small := &Message{Kind: KindAck}

	a, b := connPair(t)
	rec := &recordingConn{Conn: a.c}
	// Every Decide injects a zero-length stall, so the plan's total is
	// the number of times a Write consulted it.
	plan := faults.NewPlan(1, faults.Spec{Kind: faults.Stall, FirstN: 1 << 30})
	shaped := netsim.NewShaper(netsim.Instant(), netsim.Link{Name: "test"}).InjectFaults(plan, "site").Shape(rec)

	for _, c := range []struct {
		name string
		conn net.Conn
	}{{"wrapper", rec}, {"shaped", shaped}} {
		w := NewConn(c.conn)
		if w.tcp != nil {
			t.Fatalf("%s: treated as a raw TCP socket", c.name)
		}
		for _, m := range []*Message{bulk, small, bulk} {
			before, decided := rec.count(), plan.Total()
			errc := make(chan error, 1)
			go func() { errc <- w.Send(m) }()
			got, err := b.Recv()
			if err != nil || got.Kind != m.Kind || !bytes.Equal(got.Data, m.Data) {
				t.Fatalf("%s: Recv: %v", c.name, err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if n := rec.count() - before; n != 1 {
				t.Fatalf("%s: %v took %d Write calls", c.name, m.Kind, n)
			}
			wantDecides := int64(0)
			if c.conn == net.Conn(shaped) {
				wantDecides = 1
			}
			if n := plan.Total() - decided; n != wantDecides {
				t.Fatalf("%s: %v consulted the fault plan %d times, want %d", c.name, m.Kind, n, wantDecides)
			}
		}
	}
}

// TestRecvIntoDirect: a binary chunk reply is read from the socket
// into the caller's buffer — no pooled buffer is drawn for it — for a
// full read, a short object (Done) and an empty one.
func TestRecvIntoDirect(t *testing.T) {
	a, b := connPair(t)
	pool := &countingPool{}
	b.SetBufferPool(pool)
	data := pattern(300<<10, 3) // past recvProbe: the Decode path would need two Gets
	for _, c := range []struct {
		name string
		msg  *Message
	}{
		{"full", &Message{Kind: KindReadResp, Data: data}},
		{"short object", &Message{Kind: KindReadResp, Data: data[:1000], Done: true, Hit: true}},
		{"tiny", &Message{Kind: KindReadResp, Data: data[:3]}}, // Data ends inside the head read
		{"empty", &Message{Kind: KindReadResp, Data: []byte{}, Done: true}},
	} {
		dst, intact := guarded(t, len(data))
		go a.Send(c.msg)
		got, err := b.RecvInto(dst)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n := len(c.msg.Data)
		if got.Kind != KindReadResp || got.Done != c.msg.Done || got.Hit != c.msg.Hit ||
			len(got.Data) != n || !bytes.Equal(got.Data, c.msg.Data) {
			t.Fatalf("%s: got %d bytes done=%v hit=%v", c.name, len(got.Data), got.Done, got.Hit)
		}
		if n > 0 && &got.Data[0] != &dst[0] {
			t.Fatalf("%s: Data does not alias the destination", c.name)
		}
		intact()
	}
	if pool.gets != 0 {
		t.Fatalf("direct reads drew %d pooled buffers", pool.gets)
	}
}

// TestRecvIntoDecodePath: every frame that is not a bare chunk reply
// goes through Decode as before; a chunk reply carrying an extra field
// still ends up in the destination, its pooled Data recycled.
func TestRecvIntoDecodePath(t *testing.T) {
	a, b := connPair(t)
	pool := &countingPool{}
	b.SetBufferPool(pool)
	data := pattern(5000, 4)

	dst, intact := guarded(t, 8192)
	go a.c.Write(frameOf(t, &Message{Kind: KindReadResp, Data: data, Done: true, Len: 7}, CodecBinary))
	got, err := b.RecvInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done || !bytes.Equal(got.Data, data) || &got.Data[0] != &dst[0] {
		t.Fatalf("reply not delivered into the destination: %d bytes", len(got.Data))
	}
	intact()
	// The frame and the decoded Data: both drawn, both returned.
	if pool.gets != 2 || pool.puts != 2 {
		t.Fatalf("pool gets=%d puts=%d: decoded Data not recycled", pool.gets, pool.puts)
	}

	// Other kinds come back exactly as Recv returns them.
	for _, m := range []*Message{
		{Kind: KindAck},
		{Kind: KindStatResp, Len: 1 << 40},
		{Kind: KindObjectPart, Seq: 1, Data: data},
		{Kind: KindError, Err: "store: object not found: x"},
	} {
		go a.Send(m)
		got, err := b.RecvInto(dst)
		if err != nil || got.Kind != m.Kind || got.Len != m.Len || got.Err != m.Err || !bytes.Equal(got.Data, m.Data) {
			t.Fatalf("%v through RecvInto: %+v, %v", m.Kind, got, err)
		}
		intact()
	}

	// CallInto turns a KindError reply into a typed remote error.
	go func() {
		if _, err := a.Recv(); err == nil {
			a.Send(&Message{Kind: KindError, Err: "nope"})
		}
	}()
	_, err = b.CallInto(&Message{Kind: KindReadAt, File: "x", Len: 10}, dst)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "nope" {
		t.Fatalf("CallInto error = %v", err)
	}
	intact()
}

// TestRecvIntoRejects: malformed or hostile replies fail without one
// byte landing outside the destination.
func TestRecvIntoRejects(t *testing.T) {
	data := pattern(4096, 5)
	reply := frameOf(t, &Message{Kind: KindReadResp, Data: data}, CodecBinary)
	headLen := len(reply) - len(data) // length header + head

	t.Run("longer than the destination", func(t *testing.T) {
		a, b := connPair(t)
		dst, intact := guarded(t, len(data)-1)
		go a.c.Write(reply)
		_, err := b.RecvInto(dst)
		if !errors.Is(err, ErrOverlongReply) {
			t.Fatalf("err = %v", err)
		}
		intact()
	})
	t.Run("declared length below the frame remainder", func(t *testing.T) {
		a, b := connPair(t)
		dst, intact := guarded(t, 2*len(data))
		frame := append(append([]byte(nil), reply...), "trailing"...)
		binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
		go a.c.Write(frame)
		if _, err := b.RecvInto(dst); err == nil {
			t.Fatal("trailing bytes after Data accepted")
		}
		intact()
	})
	t.Run("declared length above the frame remainder", func(t *testing.T) {
		a, b := connPair(t)
		dst, intact := guarded(t, 2*len(data))
		frame := append([]byte(nil), reply[:len(reply)-100]...)
		binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
		go a.c.Write(frame)
		if _, err := b.RecvInto(dst); err == nil {
			t.Fatal("Data cut short by the frame accepted")
		}
		intact()
	})
	t.Run("gob codec tag 0x02", func(t *testing.T) {
		a, b := connPair(t)
		dst, intact := guarded(t, len(data))
		frame := append([]byte(nil), reply...)
		frame[4] = 0x02 // the tag a peer on the removed gob codec sends
		go a.c.Write(frame)
		if _, err := b.RecvInto(dst); err == nil || !strings.Contains(err.Error(), "unknown codec tag 0x02") {
			t.Fatalf("err = %v", err)
		}
		intact()
	})
	t.Run("frame above the cap", func(t *testing.T) {
		a, b := connPair(t)
		b.SetMaxFrame(1024)
		dst, intact := guarded(t, len(data))
		go a.c.Write(reply)
		if _, err := b.RecvInto(dst); err == nil || !strings.Contains(err.Error(), "oversized") {
			t.Fatalf("err = %v", err)
		}
		intact()
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xA5}, len(dst))) {
			t.Fatal("destination written before the cap check")
		}
	})
	t.Run("idle deadline mid-payload", func(t *testing.T) {
		a, b := connPair(t)
		b.SetIdleTimeout(50 * time.Millisecond)
		dst, intact := guarded(t, len(data))
		go a.c.Write(reply[:headLen+1000]) // then silence
		_, err := b.RecvInto(dst)
		if !IsTimeout(err) {
			t.Fatalf("err = %v, want a timeout", err)
		}
		intact()
	})
	t.Run("peer closes mid-payload", func(t *testing.T) {
		a, b := connPair(t)
		dst, intact := guarded(t, len(data))
		go func() {
			a.c.Write(reply[:headLen+1000])
			a.Close()
		}()
		if _, err := b.RecvInto(dst); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v", err)
		}
		intact()
	})
}

// TestHeartbeatNeverSplitsVectoredFrame: heartbeats racing chunk
// replies on one connection never land between a reply's head and its
// Data — the write mutex covers both buffers of the writev.
func TestHeartbeatNeverSplitsVectoredFrame(t *testing.T) {
	a, b := connPair(t)
	const replies = 200
	data := pattern(128<<10, 6)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if a.Send(&Message{Kind: KindHeartbeat}) != nil {
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < replies; i++ {
			if err := a.Send(&Message{Kind: KindReadResp, Data: data, Hit: i%2 == 0}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	dst := make([]byte, len(data))
	for got := 0; got < replies; {
		m, err := b.RecvInto(dst)
		if err != nil {
			t.Fatalf("after %d replies: %v", got, err)
		}
		switch m.Kind {
		case KindHeartbeat:
		case KindReadResp:
			if m.Hit != (got%2 == 0) || !bytes.Equal(m.Data, data) {
				t.Fatalf("reply %d corrupted", got)
			}
			got++
		default:
			t.Fatalf("unexpected %v", m.Kind)
		}
	}
	close(stop)
	// The heartbeat sender may be blocked in a write nobody reads.
	b.Close()
	wg.Wait()
}
