// Binary wire codec: a hand-rolled, length-prefixed format for
// Message, spoken on every connection.
//
// Each frame payload starts with the one-byte codec tag 0x01;
// receivers reject any other tag.
//
// The body is:
//
//	kind      uint8
//	presence  uvarint bitmap (one bit per Message field, see bit*)
//	fields    in bit order, only when their presence bit is set
//
// Presence bits carry real protocol meaning for the nil-able slice
// fields: a set bit with count 0 decodes to a non-nil empty slice,
// which is how "report present but empty" (a drained cache, a drain
// that returned nothing) stays distinguishable from "no report". Bool
// fields live entirely in the bitmap and cost zero body bytes.
// Integers are zigzag varints; strings go through a small per-message
// dictionary so repeated file and site names (every multi-job grant)
// are encoded once.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"

	"cloudburst/internal/metrics"
)

// Codec identifies a frame payload encoding; it is the first payload
// byte of every frame.
type Codec uint8

// CodecBinary is the only codec. Its tag leads every payload, so a
// peer speaking any other encoding fails on its first frame instead of
// being misparsed.
const CodecBinary Codec = 0x01

// BufferSource recycles byte buffers; *store.BufferPool satisfies it.
// A nil source degrades every Get into a fresh allocation.
type BufferSource interface {
	Get(n int64) []byte
	Put(buf []byte)
}

// Presence bits, one per Message field, in encode order. Done, Drain,
// Hit, and Last are carried by their bit alone.
const (
	bitSite = 1 << iota
	bitCores
	bitMax
	bitCompleted
	bitProgress
	bitJobs
	bitDone
	bitObject
	bitStats
	bitHints
	bitResident
	bitDrain
	bitReturned
	bitTarget
	bitSeq
	bitHintWasteChunks
	bitHintWasteBytes
	bitFile
	bitOff
	bitLen
	bitData
	bitFiles
	bitErr
	bitHit
	bitLast

	bitAll = 1<<iota - 1
)

// maxDictStrings caps the per-message string dictionary; encoder and
// decoder must agree on the cap so references stay aligned.
const maxDictStrings = 64

// snapshotFields is the number of integer counters in
// metrics.Snapshot; the codec walks them by reflection so a new
// counter is picked up without touching the wire format.
var snapshotFields = reflect.TypeOf(metrics.Snapshot{}).NumField()

var errCorrupt = errors.New("wire: corrupt frame")

// Encode appends m's frame payload (codec tag + body) to dst and
// returns the extended slice; codec must be CodecBinary. The append
// never exceeds MaxEncodedSize(m) bytes, so a caller that pre-sizes
// dst gets a zero-allocation encode.
func Encode(dst []byte, m *Message, codec Codec) ([]byte, error) {
	if codec != CodecBinary {
		return nil, fmt.Errorf("wire: unknown codec 0x%02x", uint8(codec))
	}
	return appendBinary(append(dst, byte(CodecBinary)), m), nil
}

// Decode parses one frame payload (as produced by Encode) into a
// fresh Message that shares no memory with payload. Data and Object
// are copied into buffers from pool when one is supplied; callers
// done with them may hand them back via pool.Put (or Conn.Recycle).
// Corrupted or truncated payloads, and payloads under any other codec
// tag, return an error, never panic.
func Decode(payload []byte, pool BufferSource) (*Message, error) {
	if len(payload) < 2 {
		return nil, errCorrupt
	}
	if Codec(payload[0]) != CodecBinary {
		return nil, fmt.Errorf("wire: unknown codec tag 0x%02x", payload[0])
	}
	return decodeBinary(payload[1:], pool)
}

// presenceOf computes m's presence bitmap.
func presenceOf(m *Message) uint64 {
	var p uint64
	if m.Site != "" {
		p |= bitSite
	}
	if m.Cores != 0 {
		p |= bitCores
	}
	if m.Max != 0 {
		p |= bitMax
	}
	if m.Completed != nil {
		p |= bitCompleted
	}
	if m.Progress != 0 {
		p |= bitProgress
	}
	if m.Jobs != nil {
		p |= bitJobs
	}
	if m.Done {
		p |= bitDone
	}
	if m.Object != nil {
		p |= bitObject
	}
	if m.Stats != (Stats{}) {
		p |= bitStats
	}
	if m.Hints != nil {
		p |= bitHints
	}
	if m.Resident != nil {
		p |= bitResident
	}
	if m.Drain {
		p |= bitDrain
	}
	if m.Returned != nil {
		p |= bitReturned
	}
	if m.Target != 0 {
		p |= bitTarget
	}
	if m.Seq != 0 {
		p |= bitSeq
	}
	if m.HintWasteChunks != 0 {
		p |= bitHintWasteChunks
	}
	if m.HintWasteBytes != 0 {
		p |= bitHintWasteBytes
	}
	if m.File != "" {
		p |= bitFile
	}
	if m.Off != 0 {
		p |= bitOff
	}
	if m.Len != 0 {
		p |= bitLen
	}
	if m.Data != nil {
		p |= bitData
	}
	if m.Files != nil {
		p |= bitFiles
	}
	if m.Err != "" {
		p |= bitErr
	}
	if m.Hit {
		p |= bitHit
	}
	if m.Last {
		p |= bitLast
	}
	return p
}

// MaxEncodedSize returns an upper bound on the CodecBinary payload
// size of m (tag byte included). Send uses it to draw an exactly-
// large-enough pooled buffer, so encoding never reallocates.
func MaxEncodedSize(m *Message) int {
	const iMax = 10 // widest varint
	strMax := func(s string) int { return 2*iMax + len(s) }
	jobsMax := func(js []JobAssign) int {
		n := iMax
		for i := range js {
			n += 1 + 4*iMax + strMax(js[i].File) + strMax(js[i].HomeSite)
		}
		return n
	}
	n := 1 + 1 + iMax // tag + kind + presence
	n += 11 * iMax    // all scalar integer fields
	n += strMax(m.Site) + strMax(m.File) + strMax(m.Err)
	n += 3*iMax + 5*(len(m.Completed)+len(m.Resident)+len(m.Returned))
	n += jobsMax(m.Jobs) + jobsMax(m.Hints)
	n += 2*iMax + len(m.Object) + len(m.Data)
	n += iMax
	for _, f := range m.Files {
		n += strMax(f)
	}
	if m.Stats != (Stats{}) {
		n += (3 + snapshotFields) * iMax
	}
	return n
}

type encoder struct {
	buf  []byte
	dict []string
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) svarint(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) str(s string) {
	for i, d := range e.dict {
		if d == s {
			e.uvarint(uint64(i + 1))
			return
		}
	}
	e.uvarint(0)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
	if len(e.dict) < maxDictStrings {
		e.dict = append(e.dict, s)
	}
}

func (e *encoder) int32s(v []int32) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		e.svarint(int64(x))
	}
}

func (e *encoder) bytes(v []byte) {
	e.uvarint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

func (e *encoder) jobs(v []JobAssign) {
	e.uvarint(uint64(len(v)))
	for i := range v {
		j := &v[i]
		var flags byte
		if j.Stolen {
			flags |= 1
		}
		e.buf = append(e.buf, flags)
		e.svarint(int64(j.Chunk))
		e.svarint(j.Offset)
		e.svarint(j.Length)
		e.svarint(j.Units)
		e.str(j.File)
		e.str(j.HomeSite)
	}
}

func (e *encoder) stats(s *Stats) {
	e.svarint(s.IdleEmu)
	e.svarint(s.WallEmu)
	rv := reflect.ValueOf(&s.Breakdown).Elem()
	e.uvarint(uint64(snapshotFields))
	for i := 0; i < snapshotFields; i++ {
		e.svarint(rv.Field(i).Int())
	}
}

func appendBinary(dst []byte, m *Message) []byte {
	e := encoder{buf: dst}
	p := e.head(m)
	if p&bitData != 0 {
		e.buf = append(e.buf, m.Data...)
	}
	if p&bitFiles != 0 {
		e.uvarint(uint64(len(m.Files)))
		for _, f := range m.Files {
			e.str(f)
		}
	}
	if p&bitErr != 0 {
		e.str(m.Err)
	}
	return e.buf
}

// head appends m's body up to and including Data's length prefix —
// everything that precedes the Data bytes themselves — and returns the
// presence bitmap. Conn.Send's vectored path writes head and Data as
// two buffers; sharing head with appendBinary is what keeps that frame
// byte-identical to Encode's.
func (e *encoder) head(m *Message) uint64 {
	e.buf = append(e.buf, byte(m.Kind))
	p := presenceOf(m)
	e.uvarint(p)
	if p&bitSite != 0 {
		e.str(m.Site)
	}
	if p&bitCores != 0 {
		e.svarint(int64(m.Cores))
	}
	if p&bitMax != 0 {
		e.svarint(int64(m.Max))
	}
	if p&bitCompleted != 0 {
		e.int32s(m.Completed)
	}
	if p&bitProgress != 0 {
		e.svarint(int64(m.Progress))
	}
	if p&bitJobs != 0 {
		e.jobs(m.Jobs)
	}
	if p&bitObject != 0 {
		e.bytes(m.Object)
	}
	if p&bitStats != 0 {
		e.stats(&m.Stats)
	}
	if p&bitHints != 0 {
		e.jobs(m.Hints)
	}
	if p&bitResident != 0 {
		e.int32s(m.Resident)
	}
	if p&bitReturned != 0 {
		e.int32s(m.Returned)
	}
	if p&bitTarget != 0 {
		e.svarint(int64(m.Target))
	}
	if p&bitSeq != 0 {
		e.svarint(int64(m.Seq))
	}
	if p&bitHintWasteChunks != 0 {
		e.svarint(int64(m.HintWasteChunks))
	}
	if p&bitHintWasteBytes != 0 {
		e.svarint(m.HintWasteBytes)
	}
	if p&bitFile != 0 {
		e.str(m.File)
	}
	if p&bitOff != 0 {
		e.svarint(m.Off)
	}
	if p&bitLen != 0 {
		e.svarint(m.Len)
	}
	if p&bitData != 0 {
		e.uvarint(uint64(len(m.Data)))
	}
	return p
}

// readRespHeadMax bounds what precedes Data in the payload of a chunk
// reply that carries nothing else: tag, kind, a presence bitmap of at
// most 4 bytes (every bit is below 1<<28) and a length of at most 5
// (MaxFrame is below 1<<35).
const readRespHeadMax = 1 + 1 + 4 + 5

// parseReadRespHead parses the start of a frame payload as a binary
// KindReadResp whose only body field is Data (Done and Hit ride in the
// bitmap). It returns Data's declared length and where Data begins;
// ok is false for every other payload, including one cut short, which
// is then Decode's to judge.
func parseReadRespHead(b []byte) (dataLen, dataOff int, done, hit, ok bool) {
	if len(b) < 2 || Codec(b[0]) != CodecBinary || Kind(b[1]) != KindReadResp {
		return
	}
	p, n := binary.Uvarint(b[2:])
	if n <= 0 || p&bitData == 0 || p&^uint64(bitData|bitDone|bitHit) != 0 {
		return
	}
	dataOff = 2 + n
	v, n := binary.Uvarint(b[dataOff:])
	if n <= 0 || v > MaxFrame {
		return
	}
	return int(v), dataOff + n, p&bitDone != 0, p&bitHit != 0, true
}

type decoder struct {
	buf  []byte
	dict []string
	pool BufferSource
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errCorrupt
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) svarint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, errCorrupt
	}
	d.buf = d.buf[n:]
	return v, nil
}

// count reads a length prefix and rejects any claim larger than the
// remaining bytes divided by the element's minimum encoded size, so a
// corrupt frame can never demand a huge allocation.
func (d *decoder) count(minElem int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.buf)/minElem) {
		return 0, errCorrupt
	}
	return int(v), nil
}

func (d *decoder) str() (string, error) {
	tok, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if tok != 0 {
		if tok > uint64(len(d.dict)) {
			return "", errCorrupt
		}
		return d.dict[tok-1], nil
	}
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)) {
		return "", errCorrupt
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	if len(d.dict) < maxDictStrings {
		d.dict = append(d.dict, s)
	}
	return s, nil
}

func (d *decoder) int32s() ([]int32, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		v, err := d.svarint()
		if err != nil {
			return nil, err
		}
		if v < -1<<31 || v >= 1<<31 {
			return nil, errCorrupt
		}
		out[i] = int32(v)
	}
	return out, nil
}

// bytes copies the payload range into a pooled (or fresh) buffer, so
// the returned slice owns its memory and the frame buffer can be
// recycled the moment decoding finishes.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	var out []byte
	if d.pool != nil && n > 0 {
		out = d.pool.Get(int64(n))
	} else {
		out = make([]byte, n)
	}
	copy(out, d.buf[:n])
	d.buf = d.buf[n:]
	return out, nil
}

func (d *decoder) jobs() ([]JobAssign, error) {
	// flags + 4 one-byte varints + 2 one-byte string tokens
	n, err := d.count(7)
	if err != nil {
		return nil, err
	}
	out := make([]JobAssign, n)
	for i := range out {
		j := &out[i]
		if len(d.buf) < 1 {
			return nil, errCorrupt
		}
		flags := d.buf[0]
		d.buf = d.buf[1:]
		if flags&^1 != 0 {
			return nil, errCorrupt
		}
		j.Stolen = flags&1 != 0
		chunk, err := d.svarint()
		if err != nil {
			return nil, err
		}
		if chunk < -1<<31 || chunk >= 1<<31 {
			return nil, errCorrupt
		}
		j.Chunk = int32(chunk)
		if j.Offset, err = d.svarint(); err != nil {
			return nil, err
		}
		if j.Length, err = d.svarint(); err != nil {
			return nil, err
		}
		if j.Units, err = d.svarint(); err != nil {
			return nil, err
		}
		if j.File, err = d.str(); err != nil {
			return nil, err
		}
		if j.HomeSite, err = d.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *decoder) stats(s *Stats) error {
	var err error
	if s.IdleEmu, err = d.svarint(); err != nil {
		return err
	}
	if s.WallEmu, err = d.svarint(); err != nil {
		return err
	}
	n, err := d.count(1)
	if err != nil {
		return err
	}
	rv := reflect.ValueOf(&s.Breakdown).Elem()
	for i := 0; i < n; i++ {
		v, err := d.svarint()
		if err != nil {
			return err
		}
		// Extra trailing counters (a peer with a newer Snapshot) are
		// read and dropped rather than rejected.
		if i < snapshotFields {
			rv.Field(i).SetInt(v)
		}
	}
	return nil
}

func decodeBinary(body []byte, pool BufferSource) (*Message, error) {
	if len(body) < 1 {
		return nil, errCorrupt
	}
	d := decoder{buf: body[1:], pool: pool}
	m := &Message{Kind: Kind(body[0])}
	p, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if p&^uint64(bitAll) != 0 {
		return nil, errCorrupt
	}
	if p&bitSite != 0 {
		if m.Site, err = d.str(); err != nil {
			return nil, err
		}
	}
	if p&bitCores != 0 {
		v, err := d.svarint()
		if err != nil {
			return nil, err
		}
		m.Cores = int(v)
	}
	if p&bitMax != 0 {
		v, err := d.svarint()
		if err != nil {
			return nil, err
		}
		m.Max = int(v)
	}
	if p&bitCompleted != 0 {
		if m.Completed, err = d.int32s(); err != nil {
			return nil, err
		}
	}
	if p&bitProgress != 0 {
		v, err := d.svarint()
		if err != nil {
			return nil, err
		}
		m.Progress = int(v)
	}
	if p&bitJobs != 0 {
		if m.Jobs, err = d.jobs(); err != nil {
			return nil, err
		}
	}
	m.Done = p&bitDone != 0
	if p&bitObject != 0 {
		if m.Object, err = d.bytes(); err != nil {
			return nil, err
		}
	}
	if p&bitStats != 0 {
		if err = d.stats(&m.Stats); err != nil {
			return nil, err
		}
	}
	if p&bitHints != 0 {
		if m.Hints, err = d.jobs(); err != nil {
			return nil, err
		}
	}
	if p&bitResident != 0 {
		if m.Resident, err = d.int32s(); err != nil {
			return nil, err
		}
	}
	m.Drain = p&bitDrain != 0
	if p&bitReturned != 0 {
		if m.Returned, err = d.int32s(); err != nil {
			return nil, err
		}
	}
	if p&bitTarget != 0 {
		v, err := d.svarint()
		if err != nil {
			return nil, err
		}
		m.Target = int(v)
	}
	if p&bitSeq != 0 {
		v, err := d.svarint()
		if err != nil {
			return nil, err
		}
		m.Seq = int(v)
	}
	if p&bitHintWasteChunks != 0 {
		v, err := d.svarint()
		if err != nil {
			return nil, err
		}
		m.HintWasteChunks = int(v)
	}
	if p&bitHintWasteBytes != 0 {
		if m.HintWasteBytes, err = d.svarint(); err != nil {
			return nil, err
		}
	}
	if p&bitFile != 0 {
		if m.File, err = d.str(); err != nil {
			return nil, err
		}
	}
	if p&bitOff != 0 {
		if m.Off, err = d.svarint(); err != nil {
			return nil, err
		}
	}
	if p&bitLen != 0 {
		if m.Len, err = d.svarint(); err != nil {
			return nil, err
		}
	}
	if p&bitData != 0 {
		if m.Data, err = d.bytes(); err != nil {
			return nil, err
		}
	}
	if p&bitFiles != 0 {
		n, err := d.count(1)
		if err != nil {
			return nil, err
		}
		m.Files = make([]string, n)
		for i := range m.Files {
			if m.Files[i], err = d.str(); err != nil {
				return nil, err
			}
		}
	}
	if p&bitErr != 0 {
		if m.Err, err = d.str(); err != nil {
			return nil, err
		}
	}
	m.Hit = p&bitHit != 0
	m.Last = p&bitLast != 0
	if len(d.buf) != 0 {
		return nil, errCorrupt
	}
	return m, nil
}
