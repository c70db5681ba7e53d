package store

import (
	"fmt"
	"testing"

	"cloudburst/internal/netsim"
)

// BenchmarkFetchThreads measures the unshaped multi-threaded chunk
// fetcher at several thread counts (protocol overhead only; bandwidth
// effects are covered by the experiment harness).
func BenchmarkFetchThreads(b *testing.B) {
	m := NewMem()
	data := fillPattern(4<<20, 1)
	m.Put("d", data)
	for _, threads := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Fetch(m, "d", 0, int64(len(data)), FetchOptions{
					Threads: threads, RangeSize: 256 << 10,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemoteReadAt measures one ranged read through the TCP store
// protocol.
func BenchmarkRemoteReadAt(b *testing.B) {
	m := NewMem()
	m.Put("d", fillPattern(1<<20, 2))
	ln, err := newLocalListener()
	if err != nil {
		b.Fatal(err)
	}
	srv := Serve(ln, m)
	defer srv.Close()
	c := NewClient(srv.Addr(), nil)
	defer c.Close()

	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadAt("d", buf, int64(i%16)<<16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientReadAtTCP measures the daemon data path one request
// at a time: a 256 KiB range (Fetch's sub-range size) from a Mem-backed
// server over loopback TCP into the caller's buffer — lent by the
// store, written with one writev, read from the socket into place.
func BenchmarkClientReadAtTCP(b *testing.B) {
	m := NewMem()
	m.Put("d", fillPattern(4<<20, 2))
	ln, err := newLocalListener()
	if err != nil {
		b.Fatal(err)
	}
	srv := Serve(ln, m)
	defer srv.Close()
	c := NewClient(srv.Addr(), nil)
	defer c.Close()

	buf := make([]byte, 256<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := c.ReadAt("d", buf, int64(i%16)<<18); err != nil || n != len(buf) {
			b.Fatal(n, err)
		}
	}
}

// BenchmarkSimS3Unshaped measures the SimS3 wrapper's bookkeeping
// overhead with shaping disabled.
func BenchmarkSimS3Unshaped(b *testing.B) {
	svc := NewService(netsim.Instant(), 0)
	svc.Objects.Put("d", fillPattern(1<<20, 3))
	view := svc.View(netsim.Link{})
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := view.ReadAt("d", buf, int64(i%16)<<16); err != nil {
			b.Fatal(err)
		}
	}
}
