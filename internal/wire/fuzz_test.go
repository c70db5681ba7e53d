package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/iotest"
	"time"
)

// fuzzSeedPayloads is the corpus both fuzz targets start from: every
// message shape whole, truncated, with a trailing byte, and under the
// old gob codec's tag 0x02 (what a peer from before its removal
// sends), plus two hand-made corruptions.
func fuzzSeedPayloads(f *testing.F) [][]byte {
	seeds := []*Message{
		{Kind: KindHeartbeat},
		fullMessage(),
		{Kind: KindReadResp, Data: []byte("0123456789abcdef")},
		{Kind: KindRequestJob, Resident: []int32{}, HintWasteChunks: 3},
		{Kind: KindSlaveResult, Returned: []int32{1, 2}, Object: []byte{9}},
		{Kind: KindListResp, Files: []string{"a.bin", "b.bin"}},
		// Streamed object transfer: a mid-stream part and an empty
		// terminal part (how zero-length objects end their streams).
		{Kind: KindObjectPart, Seq: 1, Off: 0, Data: []byte("first part bytes")},
		{Kind: KindObjectPart, Seq: 3, Off: 2 << 20, Last: true},
	}
	var out [][]byte
	for _, m := range seeds {
		enc, err := Encode(nil, m, CodecBinary)
		if err != nil {
			f.Fatal(err)
		}
		oldTag := append([]byte{0x02}, enc[1:]...)
		out = append(out, enc, enc[:len(enc)/2], append(enc, 0xaa), oldTag)
	}
	return append(out, []byte{}, []byte{byte(CodecBinary), byte(KindAck), 0xff, 0xff, 0xff, 0x7f})
}

// FuzzDecode exercises the decoder with arbitrary payloads: corrupted
// or truncated frames must return an error — never panic, never
// over-allocate (the decoder bounds every length claim against the
// remaining bytes). Valid payloads must re-encode to a message that
// round trips stably.
func FuzzDecode(f *testing.F) {
	for _, payload := range fuzzSeedPayloads(f) {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Decode(payload, nil)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		// Accepted payloads must describe a message the encoder can
		// reproduce, and the reproduction must decode to the same value
		// (a stable fixed point — guards against fields the decoder
		// accepts but the encoder cannot express).
		enc, err := Encode(nil, m, CodecBinary)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, err := Decode(enc, nil)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip not stable:\n first %+v\nsecond %+v", m, m2)
		}
	})
}

// streamConn is a net.Conn that only reads, from r.
type streamConn struct {
	net.Conn
	r io.Reader
}

func (c streamConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// FuzzReadInto frames arbitrary payload bytes and feeds them through
// RecvInto — the path that parses a reply's head itself and reads Data
// straight into the caller's memory — with a fixed destination fenced
// by guard bytes. It must never panic, never write outside the
// destination, and agree with Decode: reject what Decode rejects, and
// return the message Decode returns, Data delivered in the destination
// (or ErrOverlongReply when a chunk reply does not fit). Bytes arrive
// whole or one at a time.
func FuzzReadInto(f *testing.F) {
	for _, payload := range fuzzSeedPayloads(f) {
		f.Add(payload, false)
		f.Add(payload, true)
	}
	for _, n := range []int{0, 1, 63, 64, 65, 300} { // around the destination's size
		for _, m := range []*Message{
			{Kind: KindReadResp, Data: bytes.Repeat([]byte{7}, n)},
			{Kind: KindReadResp, Data: bytes.Repeat([]byte{8}, n), Done: true, Hit: true},
		} {
			enc, _ := Encode(nil, m, CodecBinary)
			f.Add(enc, false)
			f.Add(append(enc, 0), true)   // declared length below the remainder
			f.Add(enc[:len(enc)-1], true) // and above it
		}
	}

	f.Fuzz(func(t *testing.T, payload []byte, trickle bool) {
		const size = 64
		dst, intact := guarded(t, size)

		var r io.Reader = bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...))
		if trickle {
			r = iotest.OneByteReader(r)
		}
		got, err := NewConn(streamConn{r: r}).RecvInto(dst)

		intact()
		want, derr := Decode(payload, nil)
		switch {
		case len(payload) == 0 || derr != nil:
			if err == nil {
				t.Fatalf("RecvInto accepted a payload Decode rejects (%v): %+v", derr, got)
			}
		case want.Kind == KindReadResp && len(want.Data) > size:
			if !errors.Is(err, ErrOverlongReply) {
				t.Fatalf("%d-byte reply into %d bytes: err = %v", len(want.Data), size, err)
			}
		default:
			if err != nil {
				t.Fatalf("RecvInto rejected a payload Decode accepts: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RecvInto and Decode disagree:\n got %+v\nwant %+v", got, want)
			}
			if want.Kind == KindReadResp && len(got.Data) > 0 && &got.Data[0] != &dst[0] {
				t.Fatal("chunk reply not delivered in the destination")
			}
		}
	})
}

// FuzzObjectStream feeds an ObjectStream the part sequence a script
// describes. Each 3-byte step is a Seq delta, an Off delta and a
// control byte (bit 7 Last, bits 0-5 a data length taken from the
// bytes that follow); the deltas shift the in-order Seq and Off a
// sender would use, so a script can duplicate, skip or misalign parts,
// send empty parts and keep feeding after Last. An unfinished stream
// is aborted, as a collector does when its connection dies. The reader
// must end with exactly the bytes of the parts the stream accepted —
// every part up to the first Last or the first out-of-order one — and
// without an error only if a Last was reached in order: never a panic,
// a hang or reordered bytes.
func FuzzObjectStream(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 3, 'a', 'b', 'c', 0, 0, 2, 'd', 'e', 0, 0, 0x81, 'f'}, // in order
		{0, 0, 2, 'a', 'b', 0xff, 0xfe, 2, 'a', 'b', 0, 0, 0x80},     // duplicate
		{0, 0, 1, 'a', 1, 0, 0x81, 'b'},                              // gap
		{0, 0, 1, 'a', 0, 1, 0x81, 'b'},                              // misaligned
		{0, 0, 0, 0, 0, 0x80},                                        // empty parts
		{0, 0, 0x81, 'x', 0, 0, 1, 'y', 0, 0, 0x80},                  // feed after Last
		{0, 0, 2, 'a', 'b'},                                          // never ends
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		s := NewObjectStream()
		type readResult struct {
			got []byte
			err error
		}
		read := make(chan readResult, 1)
		go func() {
			got, err := io.ReadAll(s.Reader())
			read <- readResult{got, err}
		}()

		var want []byte
		sendSeq, sendOff := 1, int64(0) // the in-order values a sender uses next
		okSeq, okOff := 1, int64(0)     // what the stream accepts next
		live, ended := true, false
		for parts := 0; len(script) >= 3 && parts < 64; parts++ {
			n := min(int(script[2]&0x3f), len(script)-3)
			m := &Message{
				Kind: KindObjectPart, Seq: sendSeq + int(int8(script[0])), Off: sendOff + int64(int8(script[1])),
				Data: script[3 : 3+n], Last: script[2]&0x80 != 0,
			}
			script = script[3+n:]
			sendSeq, sendOff = sendSeq+1, sendOff+int64(n)
			done, err := s.Feed(m)
			if !live {
				continue // past Last or poisoned: anything but a panic or a hang
			}
			if m.Seq != okSeq || m.Off != okOff {
				if err == nil {
					t.Fatalf("part seq=%d off=%d accepted, want seq=%d off=%d", m.Seq, m.Off, okSeq, okOff)
				}
				live = false
				continue
			}
			if err != nil || done != m.Last {
				t.Fatalf("in-order part seq=%d: done=%v err=%v, want done=%v", m.Seq, done, err, m.Last)
			}
			want = append(want, m.Data...)
			okSeq, okOff = okSeq+1, okOff+int64(n)
			live, ended = !m.Last, m.Last
		}
		if !ended {
			s.Abort(errors.New("stream cut"))
		}
		var r readResult
		select {
		case r = <-read:
		case <-time.After(10 * time.Second):
			t.Fatal("reader hung")
		}
		if !bytes.Equal(r.got, want) {
			t.Fatalf("reader got %q, want %q", r.got, want)
		}
		if ended != (r.err == nil) {
			t.Fatalf("reader err = %v after a stream that ended in order: %v", r.err, ended)
		}
		if ended && s.Bytes() != int64(len(want)) {
			t.Fatalf("Bytes = %d, want %d", s.Bytes(), len(want))
		}
	})
}
