package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"cloudburst/internal/netsim"
	"cloudburst/internal/wire"
)

// Tests for the copy-free daemon read path: Mem lends, the server
// sends the view, the client has it read into the caller's buffer.

func TestMemLendMatchesReadAt(t *testing.T) {
	m := NewMem()
	data := fillPattern(1000, 1)
	m.Put("o", data)
	for _, c := range []struct{ off, n int64 }{
		{0, 1000}, {0, 10}, {990, 10}, {990, 11}, {500, 0}, {1000, 1}, {1000, 0}, {2000, 5}, {-1, 5},
	} {
		view, lerr := m.Lend("o", c.off, c.n)
		p := make([]byte, c.n)
		n, rerr := m.ReadAt("o", p, c.off)
		if n != len(view) || !bytes.Equal(p[:n], view) || (lerr == nil) != (rerr == nil) || (lerr == io.EOF) != (rerr == io.EOF) {
			t.Fatalf("off=%d n=%d: Lend %d bytes, %v; ReadAt %d bytes, %v", c.off, c.n, len(view), lerr, n, rerr)
		}
		if cap(view) != len(view) {
			t.Fatalf("off=%d n=%d: view has spare capacity %d into the object", c.off, c.n, cap(view)-len(view))
		}
	}
	if _, err := m.Lend("ghost", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: %v", err)
	}
	if _, err := m.Lend("o", 0, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

// guardedBuf returns an n-byte destination fenced by guard bytes and a
// check that the fence is intact.
func guardedBuf(t *testing.T, n int) ([]byte, func()) {
	t.Helper()
	const guard = 32
	buf := bytes.Repeat([]byte{0xA5}, n+2*guard)
	return buf[guard : guard+n : guard+n], func() {
		t.Helper()
		for i, b := range buf {
			if (i < guard || i >= guard+n) && b != 0xA5 {
				t.Fatalf("guard byte %d overwritten", i-guard)
			}
		}
	}
}

// TestRemoteDirectRead drives Client.ReadAt/ReadAtHit against real
// servers over each kind of store — lending (Mem), pooled (Local),
// hit-reporting (SiteBuffer) — and across a shaped link, where the
// reply takes the single-Write path.
func TestRemoteDirectRead(t *testing.T) {
	data := fillPattern(600<<10, 9)
	mem := NewMem()
	mem.Put("o", data)
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/o", data, 0o644); err != nil {
		t.Fatal(err)
	}
	local := NewLocal(dir)
	defer local.Close()
	buffer := NewSiteBuffer(SiteBufferConfig{Site: "s", Backing: mem, Capacity: 4 << 20,
		Fetch: FetchOptions{Threads: 2, RangeSize: 64 << 10}})
	defer buffer.Drain()

	shaper := netsim.NewShaper(netsim.Instant(), netsim.DefaultWAN())
	for _, c := range []struct {
		name   string
		st     Store
		shaped bool
	}{{"mem", mem, false}, {"local", local, false}, {"sitebuffer", buffer, false}, {"mem over shaped link", mem, true}} {
		ln, err := newLocalListener()
		if err != nil {
			t.Fatal(err)
		}
		var dial Dialer
		if c.shaped {
			ln, dial = shaper.Listener(ln), shaper.Dialer()
		}
		srv := Serve(ln, c.st)
		cl := NewClient(srv.Addr(), dial)

		p, intact := guardedBuf(t, 256<<10)
		for _, off := range []int64{0, 100_000, 256 << 10} {
			n, err := cl.ReadAt("o", p, off)
			if err != nil || n != len(p) || !bytes.Equal(p, data[off:off+int64(n)]) {
				t.Fatalf("%s: ReadAt(%d) = %d, %v", c.name, off, n, err)
			}
			intact()
		}
		// Short object: the bytes there are, io.EOF, nothing past them touched.
		tail := int64(len(data)) - 1000
		copy(p, bytes.Repeat([]byte{0xEE}, len(p)))
		n, hit, err := cl.ReadAtHit("o", p, tail)
		if n != 1000 || err != io.EOF || !bytes.Equal(p[:n], data[tail:]) || p[n] != 0xEE {
			t.Fatalf("%s: crossing read = %d, %v", c.name, n, err)
		}
		if _, isBuffer := c.st.(*SiteBuffer); hit && !isBuffer {
			t.Fatalf("%s: hit reported by a plain store", c.name)
		}
		if n, err := cl.ReadAt("o", p, int64(len(data))); n != 0 || err != io.EOF {
			t.Fatalf("%s: read at the end = %d, %v", c.name, n, err)
		}
		// A remote error arrives typed, not as a transport failure.
		_, err = cl.ReadAt("ghost", p, 0)
		var re *wire.RemoteError
		if !errors.As(err, &re) || Retryable(err) {
			t.Fatalf("%s: missing object: %v", c.name, err)
		}
		intact()
		cl.Close()
		srv.Close()
	}
}

// scriptedServer answers each KindReadAt on its one connection with
// the bytes reply returns, verbatim, and reports when the client hangs
// up.
func scriptedServer(t *testing.T, reply func(req *wire.Message) []byte) (addr string, hungUp <-chan struct{}) {
	t.Helper()
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		defer raw.Close()
		c := wire.NewConn(raw)
		for {
			req, err := c.Recv()
			if err != nil {
				return // the client closed its end
			}
			if _, err := raw.Write(reply(req)); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), done
}

// frame is m as it travels: Encode's payload behind its length. It runs
// on server goroutines, hence Error rather than Fatal.
func frame(t *testing.T, m *wire.Message) []byte {
	t.Helper()
	payload, err := wire.Encode(nil, m, wire.CodecBinary)
	if err != nil {
		t.Error(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestClientRejectsBadReplies: a server that answers more than was
// asked, or a frame that contradicts itself, is an error — fatal like a
// short read when it is a protocol violation, never a silent
// truncation — writes nothing outside p, and costs the pooled
// connection.
func TestClientRejectsBadReplies(t *testing.T) {
	long := fillPattern(5000, 2)
	for i, c := range []struct {
		name     string
		reply    func(req *wire.Message) []byte
		overlong bool
	}{
		{"over-long, direct path", func(*wire.Message) []byte {
			return frame(t, &wire.Message{Kind: wire.KindReadResp, Data: long})
		}, true},
		{"over-long, decode path", func(*wire.Message) []byte {
			return frame(t, &wire.Message{Kind: wire.KindReadResp, Data: long, Hit: true, Len: 7})
		}, true},
		{"length above the frame remainder", func(req *wire.Message) []byte {
			f := frame(t, &wire.Message{Kind: wire.KindReadResp, Data: long[:req.Len]})
			f = f[:len(f)-10]
			binary.BigEndian.PutUint32(f, uint32(len(f)-4))
			return f
		}, false},
		{"length below the frame remainder", func(req *wire.Message) []byte {
			f := append(frame(t, &wire.Message{Kind: wire.KindReadResp, Data: long[:req.Len-10]}), make([]byte, 10)...)
			binary.BigEndian.PutUint32(f, uint32(len(f)-4))
			return f
		}, false},
		{"frame above the cap", func(*wire.Message) []byte {
			return binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1)
		}, false},
	} {
		addr, hungUp := scriptedServer(t, c.reply)
		cl := NewClient(addr, nil)
		p, intact := guardedBuf(t, 4096)
		var n int
		var err error
		if i%2 == 0 { // the two entry points share one readAt
			n, err = cl.ReadAt("o", p, 0)
		} else {
			n, _, err = cl.ReadAtHit("o", p, 0)
		}
		if err == nil || n != 0 {
			t.Fatalf("%s: ReadAt = %d, %v", c.name, n, err)
		}
		if c.overlong && (!errors.Is(err, wire.ErrOverlongReply) || Retryable(err)) {
			t.Fatalf("%s: err = %v (retryable=%v), want a fatal over-long reply", c.name, err, Retryable(err))
		}
		intact()
		select {
		case <-hungUp:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the connection went back into the pool", c.name)
		}
		cl.Close()
	}
}

// TestFetchSurfacesOverlongReply: through Fetch's retry layer the
// violation is final on the first attempt, like a short read.
func TestFetchSurfacesOverlongReply(t *testing.T) {
	var requests atomic.Int32
	addr, _ := scriptedServer(t, func(req *wire.Message) []byte {
		requests.Add(1)
		return frame(t, &wire.Message{Kind: wire.KindReadResp, Data: make([]byte, req.Len+1)})
	})
	cl := NewClient(addr, nil)
	defer cl.Close()
	_, err := Fetch(cl, "o", 0, 1024, FetchOptions{Threads: 1, RangeSize: 1024, Retry: DefaultRetryPolicy()})
	if !errors.Is(err, wire.ErrOverlongReply) || requests.Load() != 1 {
		t.Fatalf("Fetch err = %v after %d requests", err, requests.Load())
	}
}

// TestLentViewSurvivesPut: replacing an object while a reply lent from
// it is still going out leaves that reply intact — Put swaps the
// object, it never touches the old bytes — the next read sees the new
// object, and the lent memory never entered the server's buffer pool.
func TestLentViewSurvivesPut(t *testing.T) {
	const size = 8 << 20 // beyond what loopback socket buffers hold: Send blocks mid-frame
	old, fresh := fillPattern(size, 1), fillPattern(size, 2)
	want := append([]byte(nil), old...)
	m := NewMem()
	m.Put("o", old)
	srv := startServer(t, m)

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := wire.NewConn(raw)
	if err := c.Send(&wire.Message{Kind: wire.KindReadAt, File: "o", Len: size}); err != nil {
		t.Fatal(err)
	}
	// Take the first bytes of the reply, so the send is under way, then
	// replace the object under it.
	first := make([]byte, 1024)
	if _, err := io.ReadFull(raw, first); err != nil {
		t.Fatal(err)
	}
	m.Put("o", fresh)
	rest, err := io.ReadAll(io.LimitReader(raw, int64(4+len(frameHead(size))+size-len(first))))
	if err != nil {
		t.Fatal(err)
	}
	reply := append(first, rest...)
	if got := reply[len(reply)-size:]; !bytes.Equal(got, want) {
		t.Fatal("in-flight reply changed when the object was replaced")
	}

	p := make([]byte, size)
	resp, err := c.CallInto(&wire.Message{Kind: wire.KindReadAt, File: "o", Len: size}, p)
	if err != nil || !bytes.Equal(resp.Data, fresh) {
		t.Fatalf("read after Put: %v", err)
	}
	if !bytes.Equal(old, want) {
		t.Fatal("the replaced object's bytes were modified")
	}
	// Both objects have a pool-class capacity, so a recycled view would
	// come straight back out of the next Get.
	if buf := srv.pool.Get(size); &buf[0] == &old[0] || &buf[0] == &fresh[0] {
		t.Fatal("a lent view was recycled into the server's buffer pool")
	}
}

// frameHead is the payload bytes preceding Data in an n-byte chunk reply.
func frameHead(n int) []byte {
	payload, _ := wire.Encode(nil, &wire.Message{Kind: wire.KindReadResp, Data: make([]byte, n)}, wire.CodecBinary)
	return payload[:len(payload)-n]
}
