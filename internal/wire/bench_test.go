package wire

import (
	"net"
	"testing"
)

func benchPair(b *testing.B) (*Conn, *Conn) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	server := <-accepted
	b.Cleanup(func() { client.Close(); server.Close() })
	return NewConn(client), NewConn(server)
}

// BenchmarkCallSmall measures one control round trip (a job request).
func BenchmarkCallSmall(b *testing.B) {
	a, s := benchPair(b)
	go func() {
		for {
			if _, err := s.Recv(); err != nil {
				return
			}
			grant := wireGrant()
			s.Send(&grant)
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call(&Message{Kind: KindRequestJob, Max: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func wireGrant() Message {
	return Message{Kind: KindJobGrant, Jobs: []JobAssign{{Chunk: 1, File: "f", Length: 131072}}}
}

// BenchmarkSendLargeObject measures shipping a pagerank-sized
// reduction object (600 KB) through the framed codec.
func BenchmarkSendLargeObject(b *testing.B) {
	a, s := benchPair(b)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := s.Recv(); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 600<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(&Message{Kind: KindClusterResult, Object: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGrant is the codec benchmark message: a realistic job grant
// with a batch of jobs and piggybacked prefetch hints.
func benchGrant() *Message {
	m := &Message{Kind: KindJobGrant}
	for i := int32(0); i < 8; i++ {
		m.Jobs = append(m.Jobs, JobAssign{
			Chunk: i, File: "data-0003.bin", Offset: int64(i) * 131072,
			Length: 131072, Units: 4096, HomeSite: "cloud", Stolen: i%2 == 0,
		})
		m.Hints = append(m.Hints, JobAssign{
			Chunk: 100 + i, File: "data-0004.bin", Offset: int64(i) * 131072,
			Length: 131072, Units: 4096, HomeSite: "cloud",
		})
	}
	return m
}

// BenchmarkEncodeDecode measures a pure in-memory encode+decode round
// trip on the control plane's and the data plane's hottest shapes.
func BenchmarkEncodeDecode(b *testing.B) {
	msgs := map[string]*Message{
		"jobgrant": benchGrant(),
		"readresp": {Kind: KindReadResp, Data: make([]byte, 256<<10)},
	}
	for name, m := range msgs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = Encode(buf[:0], m, CodecBinary)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Decode(buf, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
