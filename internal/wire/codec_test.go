package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudburst/internal/metrics"
)

// fullMessage returns a message with every field populated — the
// codec's worst case and the base for the presence-bit table.
func fullMessage() *Message {
	return &Message{
		Kind:      KindJobGrant,
		Site:      "cloud",
		Cores:     8,
		Max:       4,
		Completed: []int32{1, -2, 1 << 30},
		Progress:  77,
		Jobs: []JobAssign{
			{Chunk: 7, File: "data-03.bin", Offset: 4096, Length: 65536, Units: 2048, HomeSite: "cloud", Stolen: true},
			{Chunk: 8, File: "data-03.bin", Offset: 69632, Length: 65536, Units: 2048, HomeSite: "local"},
		},
		Done:   true,
		Object: []byte{1, 2, 3},
		Stats: Stats{
			Breakdown: metrics.Snapshot{
				Processing: 90 * time.Second, Retrieval: 30 * time.Second,
				JobsProcessed: 480, BytesRead: 60 << 20, PoolGets: 123,
				PreemptDrains: 2,
			},
			IdleEmu: int64(16 * time.Second),
			WallEmu: int64(125 * time.Second),
		},
		Hints: []JobAssign{
			{Chunk: 9, File: "data-04.bin", Offset: 0, Length: 65536, Units: 2048, HomeSite: "cloud"},
		},
		Resident:        []int32{3, 5},
		Drain:           true,
		Returned:        []int32{11},
		Target:          6,
		Seq:             42,
		HintWasteChunks: 5,
		HintWasteBytes:  5 << 16,
		File:            "data-00.bin",
		Off:             1 << 40,
		Len:             256 << 10,
		Data:            []byte("payload bytes"),
		Files:           []string{"data-00.bin", "data-01.bin"},
		Err:             "remote: example failure",
		Hit:             true,
		Last:            true,
	}
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	enc, err := Encode(nil, m, CodecBinary)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(enc, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// TestCodecRoundTripEveryKind sends a fully populated message under
// every protocol Kind through the codec; every field must survive
// bit-exactly, including the nil/empty slice distinction.
func TestCodecRoundTripEveryKind(t *testing.T) {
	for k := KindInvalid; k <= KindStageResp; k++ {
		m := fullMessage()
		m.Kind = k
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("kind %v mismatch:\n got %+v\nwant %+v", k, got, m)
		}
	}
}

// presenceCases maps each presence bit to a mutation that sets only
// that field. The table drives single-bit coverage: each field round
// trips alone, so a mis-ordered encode/decode pair cannot hide behind
// a neighbouring field.
var presenceCases = map[string]func(*Message){
	"Site":            func(m *Message) { m.Site = "local" },
	"Cores":           func(m *Message) { m.Cores = -3 },
	"Max":             func(m *Message) { m.Max = 12 },
	"Completed":       func(m *Message) { m.Completed = []int32{9} },
	"Progress":        func(m *Message) { m.Progress = 1 },
	"Jobs":            func(m *Message) { m.Jobs = []JobAssign{{Chunk: 1, File: "f", HomeSite: "s"}} },
	"Done":            func(m *Message) { m.Done = true },
	"Object":          func(m *Message) { m.Object = []byte{0xff} },
	"Stats":           func(m *Message) { m.Stats = Stats{WallEmu: 9} },
	"Hints":           func(m *Message) { m.Hints = []JobAssign{{Chunk: 2}} },
	"Resident":        func(m *Message) { m.Resident = []int32{} },
	"Drain":           func(m *Message) { m.Drain = true },
	"Returned":        func(m *Message) { m.Returned = []int32{} },
	"Target":          func(m *Message) { m.Target = 4 },
	"Seq":             func(m *Message) { m.Seq = 17 },
	"HintWasteChunks": func(m *Message) { m.HintWasteChunks = 2 },
	"HintWasteBytes":  func(m *Message) { m.HintWasteBytes = 1 << 33 },
	"File":            func(m *Message) { m.File = "data-09.bin" },
	"Off":             func(m *Message) { m.Off = -1 },
	"Len":             func(m *Message) { m.Len = 1 << 50 },
	"Data":            func(m *Message) { m.Data = []byte{} },
	"Files":           func(m *Message) { m.Files = []string{} },
	"Err":             func(m *Message) { m.Err = "boom" },
	"Hit":             func(m *Message) { m.Hit = true },
	"Last":            func(m *Message) { m.Last = true },
}

// TestCodecRoundTripPresenceBits covers each presence bit in
// isolation, the all-bits message, and the empty message. The
// single-field cases use empty non-nil slices where protocol semantics
// ride on the distinction.
func TestCodecRoundTripPresenceBits(t *testing.T) {
	if want := len(presenceCases); want != 25 {
		t.Fatalf("presence table covers %d fields, want 25 (update with the Message struct)", want)
	}
	for name, set := range presenceCases {
		m := &Message{Kind: KindAck}
		set(m)
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("field %s mismatch:\n got %+v\nwant %+v", name, got, m)
		}
	}
	empty := &Message{Kind: KindHeartbeat}
	if got := roundTrip(t, empty); !reflect.DeepEqual(got, empty) {
		t.Fatalf("empty message mismatch: %+v", got)
	}
	full := fullMessage()
	if got := roundTrip(t, full); !reflect.DeepEqual(got, full) {
		t.Fatalf("full message mismatch:\n got %+v\nwant %+v", got, full)
	}
}

// TestSnapshotFieldsAreIntKinds guards the reflection-based Stats
// encoding: every metrics.Snapshot field must be an integer kind
// (int, int64, time.Duration) or the codec cannot carry it.
func TestSnapshotFieldsAreIntKinds(t *testing.T) {
	rt := reflect.TypeOf(metrics.Snapshot{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		default:
			t.Fatalf("metrics.Snapshot.%s is %v; the wire codec only carries integer counters — extend encoder.stats before adding this field", f.Name, f.Type)
		}
	}
}

// TestMaxEncodedSizeIsUpperBound: Send relies on MaxEncodedSize being
// a strict bound so the pooled encode buffer never reallocates.
func TestMaxEncodedSizeIsUpperBound(t *testing.T) {
	msgs := []*Message{
		{Kind: KindHeartbeat},
		fullMessage(),
		{Kind: KindReadResp, Data: make([]byte, 256<<10)},
		{Kind: KindListResp, Files: []string{"a", "b", "c", strings.Repeat("x", 300)}},
	}
	for _, set := range presenceCases {
		m := &Message{Kind: KindAck}
		set(m)
		msgs = append(msgs, m)
	}
	for _, m := range msgs {
		enc, err := Encode(nil, m, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > MaxEncodedSize(m) {
			t.Fatalf("kind %v: encoded %d bytes > MaxEncodedSize %d", m.Kind, len(enc), MaxEncodedSize(m))
		}
	}
}

// TestStringDictionaryDedupes: repeated file/site names across a
// multi-job grant must be encoded once; decode restores them exactly.
func TestStringDictionaryDedupes(t *testing.T) {
	file := "data-shared-0001.bin"
	grant := &Message{Kind: KindJobGrant}
	lone := &Message{Kind: KindJobGrant}
	for i := int32(0); i < 16; i++ {
		grant.Jobs = append(grant.Jobs, JobAssign{Chunk: i, File: file, HomeSite: "cloud"})
		lone.Jobs = append(lone.Jobs, JobAssign{Chunk: i, File: file, HomeSite: "cloud"})
		lone.Jobs[i].File = strings.Repeat("u", 10) + string(rune('a'+i)) + file
	}
	encShared, _ := Encode(nil, grant, CodecBinary)
	encUnique, _ := Encode(nil, lone, CodecBinary)
	if len(encShared) >= len(encUnique)-10*16 {
		t.Fatalf("dictionary not deduplicating: shared=%dB unique=%dB", len(encShared), len(encUnique))
	}
	if got := roundTrip(t, grant); !reflect.DeepEqual(got, grant) {
		t.Fatalf("dictionary round trip mismatch")
	}
}

// TestDecodeRejectsCorruption: structural corruption must produce an
// error, not garbage or a panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid, err := Encode(nil, fullMessage(), CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":                {},
		"tag only":             {byte(CodecBinary)},
		"unknown tag":          {0x7f, 0x00, 0x00},
		"gob codec tag 0x02":   append([]byte{0x02}, valid[1:]...),
		"truncated":            valid[:len(valid)/2],
		"trailing bytes":       append(append([]byte{}, valid...), 0xaa),
		"unknown presence bit": {byte(CodecBinary), byte(KindAck), 0xff, 0xff, 0xff, 0x7f},
		"huge slice count": {byte(CodecBinary), byte(KindRequestJob),
			byte(bitCompleted), 0xff, 0xff, 0xff, 0x7f},
	}
	for name, payload := range cases {
		if _, err := Decode(payload, nil); err == nil {
			t.Fatalf("%s: decode accepted corrupt payload", name)
		}
	}
}

// countingPool is a BufferSource test double (wire cannot import
// store without a cycle); it tracks gets/puts and serves fresh
// buffers.
type countingPool struct {
	gets, puts int
	last       []byte
}

func (p *countingPool) Get(n int64) []byte { p.gets++; return make([]byte, n) }
func (p *countingPool) Put(buf []byte)     { p.puts++; p.last = buf }

// TestPooledSendRecvRoundTrip: with a pool installed on both ends,
// messages still round trip exactly, frames are recycled, and the
// decoded Data buffer is owned by the message (mutating the pool's
// recycled buffer must not corrupt it).
func TestPooledSendRecvRoundTrip(t *testing.T) {
	a, b := connPair(t)
	ap, bp := &countingPool{}, &countingPool{}
	a.SetBufferPool(ap)
	b.SetBufferPool(bp)
	want := fullMessage()
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pooled round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if ap.gets == 0 || ap.puts == 0 {
		t.Fatalf("sender pool unused: %+v", ap)
	}
	if bp.gets == 0 || bp.puts == 0 {
		t.Fatalf("receiver pool unused: %+v", bp)
	}
	// The frame buffer was recycled; scribble over it and confirm the
	// message's Data survived (it owns its own pooled buffer).
	for i := range bp.last {
		bp.last[i] = 0xEE
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("decoded Data aliases the recycled frame buffer")
	}
	b.Recycle(got.Data)
	if bp.puts < 2 {
		t.Fatalf("Recycle did not return the Data buffer: %+v", bp)
	}
}

// TestLargeFrameIncrementalRead: frames beyond the recvProbe
// threshold take the two-step read path and must still arrive intact.
func TestLargeFrameIncrementalRead(t *testing.T) {
	a, b := connPair(t)
	data := make([]byte, recvProbe+recvProbe/2)
	for i := range data {
		data[i] = byte(i * 31)
	}
	want := &Message{Kind: KindReadResp, Data: data}
	errc := make(chan error, 1)
	go func() { errc <- a.Send(want) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("large frame corrupted on the incremental read path")
	}
}

// TestSetMaxFrameRejectsOversized: a per-connection cap must reject a
// frame the package-wide MaxFrame would admit.
func TestSetMaxFrameRejectsOversized(t *testing.T) {
	a, b := connPair(t)
	b.SetMaxFrame(1024)
	errc := make(chan error, 1)
	go func() { errc <- a.Send(&Message{Kind: KindReadResp, Data: make([]byte, 4096)}) }()
	if _, err := b.Recv(); err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("err = %v, want oversized-frame rejection", err)
	}
	<-errc // sender may or may not error depending on close timing
}

// statsGoldenFrame is the encoded KindClusterResult of
// TestStatsFrameGolden.
const statsGoldenFrame = "010481030005636c6f7564030102038098dc93348080eb91fc0d2d020406080a0c0e10121416181a1c1e20222426282a2c2e30323436383a3c3e40424446484a4c4e50525456585a"

// TestStatsFrameGolden pins the Stats frame byte for byte: counter i of
// metrics.Snapshot carries i+1, so a reordered, dropped or re-typed
// counter — which mixed-version peers would misread — shows up as a
// different frame. An appended counter changes the frame too without
// breaking peers; extend the hex then.
func TestStatsFrameGolden(t *testing.T) {
	var snap metrics.Snapshot
	v := reflect.ValueOf(&snap).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	m := &Message{
		Kind:   KindClusterResult,
		Site:   "cloud",
		Object: []byte{1, 2, 3},
		Stats:  Stats{Breakdown: snap, IdleEmu: int64(7 * time.Second), WallEmu: int64(240 * time.Second)},
	}
	enc, err := Encode(nil, m, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", enc); got != statsGoldenFrame {
		t.Fatalf("Stats frame changed:\n got %s\nwant %s", got, statsGoldenFrame)
	}
	if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Stats, m.Stats)
	}
}
