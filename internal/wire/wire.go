// Package wire implements the framed message protocol spoken between
// every pair of components in the system: head <-> master, master <->
// slave, and store client <-> store server. Messages are encoded with
// a hand-rolled binary codec (see codec.go) and carried in
// length-prefixed frames so that each logical message maps to a single
// write call on the connection — which is what lets the netsim layer
// charge link latency per message burst the way a real
// request/response protocol would pay it.
//
// Encode buffers and frame payloads are recycled through an optional
// BufferSource (SetBufferPool), so the steady-state control plane
// allocates nothing per message. The one bulk message, a store's chunk
// reply, is not copied at all on a raw TCP socket: the sender hands
// head and Data to the kernel as one vectored write, and a receiver
// that says where the bytes belong (RecvInto) has them read from the
// socket straight into place.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cloudburst/internal/metrics"
)

// Kind discriminates protocol messages.
type Kind uint8

// Message kinds for the cluster protocol (head/master/slave) and the
// store protocol (client/server).
const (
	KindInvalid Kind = iota

	// Cluster protocol.
	KindRegisterMaster // master->head: Site, Cores
	KindRequestJobs    // master->head: Site, Max, Completed, Progress
	KindJobs           // head->master: Jobs, Done (no jobs, not Done: capped)
	KindClusterResult  // master->head: Site, Object, Stats
	KindFinal          // head->master: Object (final reduction), Done
	KindRegisterSlave  // slave->master: Site, Cores
	KindRequestJob     // slave->master: Max, Completed
	KindJobGrant       // master->slave: Jobs, Done
	KindSlaveResult    // slave->master: Object, Stats
	KindAck            // generic acknowledgement
	KindError          // Err carries the message

	// Store protocol.
	KindReadAt   // client->server: File, Off, Len
	KindReadResp // server->client: Data (or Err)
	KindStat     // client->server: File
	KindStatResp // server->client: Len = size
	KindList     // client->server
	KindListResp // server->client: Files

	// Liveness. Heartbeats flow one way — from the requesting side
	// (slave->master, master->head) — and are never answered, so they
	// interleave safely with the strict request/response exchanges.
	KindHeartbeat

	// Elastic membership. KindJoin registers a late-joining slave
	// (elastic scale-up) and is answered like KindRegisterSlave.
	// KindDrain and KindScale are one-way pushes, like heartbeats:
	// KindDrain tells a slave to retire after its current grant, and
	// KindScale tells a master the head's new worker-count target for
	// its site. Receivers absorb them between request/response pairs,
	// so every request still sees exactly one real response.
	KindJoin  // slave->master: Site, Cores (late registration)
	KindDrain // master->slave: retire after current grant (one-way)
	KindScale // head->master: Target workers for the site (one-way)

	// Spot preemption. KindPreemptWarn is a request, answered with
	// KindAck: the worker received a revocation warning and is starting
	// an accelerated drain, and the Ack guarantees the master has the
	// connection marked draining — end-of-run grants withheld from the
	// others — before any job is abandoned, so returned work can never
	// strand. The flush itself is a normal KindSlaveResult with
	// Returned. KindCheckpoint is a one-way push, absorbed like a
	// heartbeat: a sequence-numbered partial reduction (Object), the
	// cumulative chunk ids it covers (Completed), and the worker's
	// cumulative Stats. The master keeps only the newest per connection
	// and merges it exactly once — on slave loss — so the checkpoint
	// path stays idempotent against both delivered results and
	// re-execution.
	KindPreemptWarn // slave->master: accelerated drain starting (Ack'd)
	KindCheckpoint  // slave->master: Seq, Object, Completed, Stats (one-way)

	// Burst buffer. KindStage asks a site's buffer server to pull a
	// chunk from its backing store into the shared cache without
	// shipping the bytes back — the master's hint-driven pre-warming.
	// KindStageResp answers with Len = the bytes actually staged (0
	// when the chunk was already resident). A KindReadResp served by a
	// buffer additionally carries Hit, so clients can attribute the
	// read to the buffer tier vs. a backing fetch the buffer performed
	// on their behalf.
	KindStage     // client->server: File, Off, Len
	KindStageResp // server->client: Len = bytes staged (or Err)

	// Streamed object transfer. A reduction object too large to ship as
	// one frame travels as a run of KindObjectPart pushes — bounded
	// frames (~1 MiB, drawn from the connection's BufferPool) carrying
	// Seq (1-based part number), Off (cumulative bytes before this
	// part), Data, and Last on the final part — followed by the normal
	// terminal message (KindSlaveResult / KindClusterResult /
	// KindCheckpoint / KindFinal) with a nil Object. Parts are one-way,
	// absorbed like heartbeats by anything mid-request; the receiver
	// bridges them into an io.Reader (ObjectStream) and decodes the
	// object incrementally while later parts are still in flight, so a
	// ~300 MB pagerank object never needs a single 300 MB allocation or
	// frame on either side.
	KindObjectPart // Seq, Off, Data, Last (one-way)

	// KindPartial terminates the one part stream that is NOT followed by
	// its owner's terminal message: the head's early downlink to the
	// last cluster still uploading its result (the laggard). The stream
	// it closes is the merge of every OTHER cluster's result, so the
	// receiver folds its own result into it instead of treating it as
	// the final object; the later KindFinal then carries no object.
	KindPartial // head->master: the preceding part stream is complete (one-way)
)

var kindNames = map[Kind]string{
	KindInvalid: "invalid", KindRegisterMaster: "register-master",
	KindRequestJobs: "request-jobs", KindJobs: "jobs",
	KindClusterResult: "cluster-result", KindFinal: "final",
	KindRegisterSlave: "register-slave", KindRequestJob: "request-job",
	KindJobGrant: "job-grant", KindSlaveResult: "slave-result",
	KindAck: "ack", KindError: "error", KindReadAt: "read-at",
	KindReadResp: "read-resp", KindStat: "stat", KindStatResp: "stat-resp",
	KindList: "list", KindListResp: "list-resp", KindHeartbeat: "heartbeat",
	KindJoin: "join", KindDrain: "drain", KindScale: "scale",
	KindPreemptWarn: "preempt-warn", KindCheckpoint: "checkpoint",
	KindStage: "stage", KindStageResp: "stage-resp",
	KindObjectPart: "object-part", KindPartial: "partial",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// JobAssign describes one chunk assigned for processing. It carries
// everything a slave needs to locate and read the chunk without
// consulting the index again.
type JobAssign struct {
	// Chunk is the global chunk/job id.
	Chunk int32
	// File is the data file name holding the chunk.
	File string
	// Offset and Length locate the chunk inside the file.
	Offset int64
	Length int64
	// Units is the number of data units in the chunk.
	Units int64
	// HomeSite names the site whose store holds File.
	HomeSite string
	// Stolen marks jobs assigned across sites (work stealing).
	Stolen bool
}

// Stats mirrors the per-worker metrics carried back up the tree at the
// end of a run.
type Stats struct {
	Breakdown metrics.Snapshot
	// IdleEmu is cluster end-of-run idle time (master->head only).
	IdleEmu int64 // time.Duration in ns; int64 keeps the varints compact
	// WallEmu is the sender's emulated wall time for the run.
	WallEmu int64
}

// Message is the single on-wire envelope. Only the fields relevant to
// a Kind are populated; the codec's presence bitmap makes absent
// fields free, so a single struct beats an interface registry for an
// internal protocol.
//
// For the slice fields, nil and empty are distinct on the wire: a
// non-nil empty slice is encoded as "present, zero elements" and
// decodes back to a non-nil empty slice. Protocol semantics ride on
// that distinction for Resident and Returned — an empty report
// ("cache drained", "drain returned nothing") is not the same as no
// report.
type Message struct {
	Kind Kind

	Site      string
	Cores     int
	Max       int
	Completed []int32
	// Progress is an advisory cumulative count of slave-reported
	// completions at the sending site (KindRequestJobs and
	// KindClusterResult). Unlike Completed — withheld until a slave's
	// reduction object lands, so re-execution stays possible — it flows
	// continuously; the head's grant cap and the elastic controller need
	// a live progress signal and tolerate its optimism about work a
	// dying slave will redo.
	Progress int
	Jobs     []JobAssign
	// Done on KindJobs means the head's pool has no unassigned job
	// left. KindJobs with no jobs and Done false is a capped grant: the
	// site already holds its measured throughput share of the remaining
	// work, so ask again after your next completion.
	Done   bool
	Object []byte
	Stats  Stats

	// Hints piggybacks "likely next chunks" on a KindJobGrant: jobs the
	// master expects to hand this slave soon, so its prefetch pipeline
	// can warm the chunk cache deeper than the one granted batch. Hints
	// are advisory — the slave may drop any or all of them (byte budget,
	// cache disabled) and the master may grant the chunks elsewhere.
	Hints []JobAssign

	// Resident piggybacks cache-resident chunk ids upstream: slaves
	// attach the chunk ids currently warm in their cache to
	// KindRequestJob, masters fold the union into KindRequestJobs, and
	// the head steers work stealing away from chunks a victim already
	// has warm (stealing those would waste the victim's cache). A nil
	// slice means "no report" (cache disabled); a non-nil empty slice
	// is a real report of a drained cache and clears the stale warm
	// set upstream.
	Resident []int32

	// Drain marks a KindJobGrant sent to a retiring worker: no jobs
	// follow and the worker must flush its partial reduction. It exists
	// because the one-way KindDrain push can race a request already in
	// flight; flagging the response closes the window.
	Drain bool
	// Returned lists granted-but-unprocessed chunk ids a draining slave
	// hands back to its master for re-execution elsewhere. Completions
	// in the same message stand (the partial reduction was flushed);
	// Returned jobs were never folded in. A non-nil Returned — even
	// empty ("I finished everything I was granted") — marks a drain
	// result; nil marks a normal end-of-run result.
	Returned []int32
	// Target is the desired worker count on a KindScale push.
	Target int

	// Seq orders a connection's KindCheckpoint pushes: the master keeps
	// only the highest sequence seen, so a reordered or duplicated
	// checkpoint can never roll a newer partial reduction back.
	Seq int
	// HintWasteChunks / HintWasteBytes piggyback the slave's current
	// hint-waste ledger (chunks warmed on a master hint but never
	// granted to any of its workers) on KindRequestJob, closing the
	// hint-quality feedback loop: a master seeing a slave's waste climb
	// shrinks that connection's effective hint depth. Zero means "no
	// waste", which is also the harmless reading of "no report".
	HintWasteChunks int
	HintWasteBytes  int64

	File string
	Off  int64
	Len  int64
	Data []byte

	Files []string
	Err   string

	// Hit marks a KindReadResp that a site buffer served from its
	// resident cache rather than by fetching from the backing store;
	// clients use it for per-tier retrieval accounting.
	Hit bool

	// Last marks the final KindObjectPart of a streamed object. Seq and
	// Off (shared with the checkpoint/store fields above) order and
	// position the parts; an empty-Data Last part is legal and
	// terminates a zero-length object.
	Last bool
}

// MaxFrame bounds a single frame; larger frames indicate corruption.
// SetMaxFrame lowers the bound per connection.
const MaxFrame = 1 << 30

// recvProbe is how much of a large frame Recv reads before committing
// the full allocation: a corrupted 4-byte header can claim up to the
// frame cap, so the receiver proves the peer is actually streaming a
// body before paying for one.
const recvProbe = 256 << 10

// scratchMax caps the per-connection encode/decode scratch buffers
// retained between messages when no BufferSource is configured.
const scratchMax = 1 << 20

// vectoredMin is the smallest Data worth a vectored write; below it,
// copying into the frame is cheaper than a second iovec.
const vectoredMin = 16 << 10

// Conn wraps a net.Conn with framed binary message I/O. Reads and
// writes are independently serialized, so one goroutine may read while
// another writes, but concurrent writers queue behind a mutex to keep
// frames intact.
type Conn struct {
	c net.Conn
	// tcp is c when it is a raw TCP socket, the one connection type on
	// which two buffers reach the kernel as a single writev. Everything
	// else — a netsim.ShapedConn above all, which charges latency and
	// consults its fault plan per Write — keeps one Write per message.
	tcp *net.TCPConn

	// idle and writeTimeout arm per-operation deadlines (stall
	// detection); they are stored atomically so a heartbeater may run
	// while the owner reconfigures.
	idle         atomic.Int64 // read deadline per Recv, ns; 0 = none
	writeTimeout atomic.Int64 // write deadline per Send, ns; 0 = none
	maxFrame     atomic.Int64 // per-conn frame cap; 0 = MaxFrame

	pool atomic.Pointer[poolBox]

	wmu  sync.Mutex
	wbuf []byte // encode scratch when no pool is set; guarded by wmu
	rmu  sync.Mutex
	rbuf []byte // frame scratch when no pool is set; guarded by rmu
	// rhead receives the 4-byte length and then the first bytes of the
	// payload; guarded by rmu. A field, not a local, because a buffer
	// handed to an interface's Read escapes to the heap.
	rhead [4 + readRespHeadMax]byte
}

// poolBox wraps the BufferSource interface for atomic swapping.
type poolBox struct{ p BufferSource }

// NewConn wraps c.
func NewConn(c net.Conn) *Conn {
	tcp, _ := c.(*net.TCPConn)
	return &Conn{c: c, tcp: tcp}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// SetBufferPool installs a buffer recycler: Send draws its encode
// buffer from p and returns it after the write, and Recv draws frame
// payloads (and the Data/Object buffers that outlive them) from p,
// returning the frame the moment decoding finishes.
func (c *Conn) SetBufferPool(p BufferSource) {
	if p == nil {
		c.pool.Store(nil)
		return
	}
	c.pool.Store(&poolBox{p: p})
}

func (c *Conn) bufferPool() BufferSource {
	if b := c.pool.Load(); b != nil {
		return b.p
	}
	return nil
}

// Recycle hands a buffer decoded by Recv (Message.Data or .Object)
// back to the connection's pool once the caller is done with it. A
// no-op without a pool.
func (c *Conn) Recycle(buf []byte) {
	if p := c.bufferPool(); p != nil {
		p.Put(buf)
	}
}

// SetIdleTimeout arms a read deadline of d on every subsequent Recv: a
// peer that stays silent (or stalls mid-frame) for longer than d makes
// Recv fail with a timeout error instead of hanging forever. Zero
// disables the deadline.
func (c *Conn) SetIdleTimeout(d time.Duration) {
	c.idle.Store(int64(d))
	if d <= 0 {
		// Recv only re-arms a positive timeout; lift the last one armed.
		c.c.SetReadDeadline(time.Time{})
	}
}

// SetWriteTimeout arms a write deadline of d on every subsequent Send,
// so a peer that stops draining its socket cannot wedge the sender.
// Zero disables the deadline.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.writeTimeout.Store(int64(d))
	if d <= 0 {
		c.c.SetWriteDeadline(time.Time{})
	}
}

// SetMaxFrame lowers this connection's frame-size cap below the
// package MaxFrame: peers whose messages are known small (the control
// plane) can reject a corrupt header before it demands a large read.
// Zero or negative restores the default.
func (c *Conn) SetMaxFrame(n int) {
	if n < 0 {
		n = 0
	}
	c.maxFrame.Store(int64(n))
}

func (c *Conn) frameCap() int {
	if v := c.maxFrame.Load(); v > 0 && v < MaxFrame {
		return int(v)
	}
	return MaxFrame
}

// IsTimeout reports whether err is a deadline-exceeded (stall) error,
// as opposed to a closed or reset connection.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// RemoteError is returned by Call when the peer answered with
// KindError: the request reached the other side and was rejected
// there, which callers classify differently from a transport failure.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// Heartbeats starts a goroutine that sends KindHeartbeat on c every
// interval until the returned stop function is called or a send fails.
// Heartbeats are one-way: the receiver resets its idle deadline and
// discards them, so they coexist with request/response traffic (frame
// writes are serialized by the connection's write mutex).
func Heartbeats(c *Conn, interval time.Duration) (stop func()) {
	return HeartbeatsWith(c, interval, nil)
}

// HeartbeatsWith is Heartbeats with a logger. A sender that dies on a
// failed send is otherwise silent until the peer's idle deadline
// declares this side lost, so the death is counted through
// metrics.HeartbeatSenderStops and logged when logf is non-nil.
func HeartbeatsWith(c *Conn, interval time.Duration, logf func(string, ...any)) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := c.Send(&Message{Kind: KindHeartbeat}); err != nil {
					select {
					case <-done:
						// Deliberate teardown racing the ticker: the owner
						// already stopped us, not a silent death.
					default:
						metrics.CountHeartbeatSenderStop()
						if logf != nil {
							logf("wire: heartbeat sender to %v stopped: %v", c.RemoteAddr(), err)
						}
					}
					return
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Send encodes m and writes it as one frame with one call on the
// underlying connection: a single Write, or on a raw TCP socket a
// single writev for a chunk reply (see sendVectored). The encode buffer
// comes from the connection's pool (or a retained scratch buffer), so
// the steady state allocates nothing.
func (c *Conn) Send(m *Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.tcp != nil && isBulkRead(m) {
		return c.sendVectored(m)
	}
	buf, pool := c.encodeBuffer(m)
	buf = appendBinary(append(buf, byte(CodecBinary)), m)
	defer c.releaseEncode(buf, pool)
	if err := c.startFrame(buf, len(buf)-4); err != nil {
		return err
	}
	if _, err := c.c.Write(buf); err != nil {
		return fmt.Errorf("wire: write %v: %w", m.Kind, err)
	}
	return nil
}

// encodeBuffer returns the 4-byte frame header slot of the buffer Send
// encodes into, and the pool it came from (nil for connection scratch).
func (c *Conn) encodeBuffer(m *Message) ([]byte, BufferSource) {
	if pool := c.bufferPool(); pool != nil {
		// MaxEncodedSize is a strict upper bound, so the encode never
		// outgrows the pooled buffer and Put always recycles it.
		return pool.Get(int64(4 + MaxEncodedSize(m)))[:4], pool
	}
	if cap(c.wbuf) >= 4 {
		return c.wbuf[:4], nil
	}
	return make([]byte, 4, 4096), nil
}

func (c *Conn) releaseEncode(buf []byte, pool BufferSource) {
	if pool != nil {
		pool.Put(buf)
	} else if cap(buf) <= scratchMax {
		c.wbuf = buf[:0]
	}
}

// startFrame checks a payload-byte frame against the cap, writes its
// length into hdr[:4] and arms the write deadline.
func (c *Conn) startFrame(hdr []byte, payload int) error {
	if payload > c.frameCap() {
		return fmt.Errorf("wire: frame too large: %d", payload)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(payload))
	if d := c.writeTimeout.Load(); d > 0 {
		c.c.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	}
	return nil
}

// isBulkRead reports whether m is a chunk reply big enough to send
// without copying: nothing is encoded after its Data.
func isBulkRead(m *Message) bool {
	return m.Kind == KindReadResp && len(m.Data) >= vectoredMin && m.Files == nil && m.Err == ""
}

// sendVectored writes m — for which isBulkRead holds — as two buffers
// in one writev: the encoded head in connection scratch, and m.Data
// where it lies. The bytes on the wire are exactly Encode's. Data is
// only read, and only until Send returns, so a store may pass memory it
// merely lends. Called with wmu held, which covers both buffers: no
// other frame can land between them.
func (c *Conn) sendVectored(m *Message) error {
	e := encoder{buf: append(c.wbuf[:0], 0, 0, 0, 0, byte(CodecBinary))}
	e.head(m)
	c.wbuf = e.buf[:0]
	if err := c.startFrame(e.buf, len(e.buf)-4+len(m.Data)); err != nil {
		return err
	}
	bufs := net.Buffers{e.buf, m.Data}
	if _, err := bufs.WriteTo(c.tcp); err != nil {
		return fmt.Errorf("wire: write %v: %w", m.Kind, err)
	}
	return nil
}

// ErrOverlongReply is RecvInto's error for a chunk reply carrying more
// bytes than the destination holds: the peer answered more than was
// asked, a protocol violation rather than a transport failure.
var ErrOverlongReply = errors.New("wire: chunk reply longer than the read that asked for it")

// Recv reads the next frame and decodes it. The frame buffer is
// recycled immediately; the returned Message owns all its memory
// (Data and Object live in pooled buffers when a pool is set — hand
// them back with Recycle when done).
func (c *Conn) Recv() (*Message, error) { return c.recv(nil, false) }

// RecvInto is Recv for a caller awaiting a chunk reply whose bytes
// belong in p: a KindReadResp carrying Data comes back with Data ==
// p[:n], and one that does not fit fails with ErrOverlongReply. When
// the frame is a chunk reply carrying only Data, the bytes are read
// from the connection directly into p and never touch a frame buffer.
// Any other message is returned exactly as Recv would return it.
func (c *Conn) RecvInto(p []byte) (*Message, error) { return c.recv(p, true) }

func (c *Conn) recv(p []byte, into bool) (*Message, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	n, err := c.readFrameLen()
	if err != nil {
		return nil, err
	}
	pool := c.bufferPool()
	var head []byte // payload bytes readDirect consumed without finishing the frame
	if into {
		m, h, err := c.readDirect(n, p)
		if m != nil || err != nil {
			return m, err
		}
		head = h
	}
	payload, err := c.readPayload(n, head, pool)
	if err != nil {
		return nil, fmt.Errorf("wire: short frame: %w", err)
	}
	m, derr := Decode(payload, pool)
	// The decoded message copies everything it keeps, so the frame
	// buffer goes straight back into circulation.
	if pool != nil {
		pool.Put(payload)
	} else if cap(payload) > cap(c.rbuf) && cap(payload) <= scratchMax {
		c.rbuf = payload[:0]
	}
	if derr != nil || !into {
		return m, derr
	}
	return landIn(m, p, pool)
}

// readFrameLen arms the idle deadline for the whole frame and reads
// its length header.
func (c *Conn) readFrameLen() (int, error) {
	if d := c.idle.Load(); d > 0 {
		c.c.SetReadDeadline(time.Now().Add(time.Duration(d)))
	}
	hdr := c.rhead[:4]
	if _, err := io.ReadFull(c.c, hdr); err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > c.frameCap() {
		return 0, fmt.Errorf("wire: oversized frame: %d", n)
	}
	if n == 0 {
		return 0, fmt.Errorf("wire: empty frame")
	}
	return n, nil
}

// readDirect reads the first bytes of an n-byte frame and, when they
// announce a chunk reply that is nothing but Data — of exactly the
// frame's remaining length, and no more than p holds — reads that Data
// from the connection into p. For any other frame it returns the
// payload bytes it consumed, for readPayload to continue from.
func (c *Conn) readDirect(n int, p []byte) (*Message, []byte, error) {
	head := c.rhead[4:]
	if n < len(head) {
		head = head[:n]
	}
	if _, err := io.ReadFull(c.c, head); err != nil {
		return nil, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	dataLen, dataOff, done, hit, ok := parseReadRespHead(head)
	if !ok || dataLen != n-dataOff || dataLen > len(p) {
		return nil, head, nil
	}
	got := copy(p, head[dataOff:])
	if _, err := io.ReadFull(c.c, p[got:dataLen]); err != nil {
		return nil, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return &Message{Kind: KindReadResp, Data: p[:dataLen], Done: done, Hit: hit}, nil, nil
}

// landIn moves the Data of a chunk reply that took the Decode path
// into p, recycling the buffer Decode drew for it. A reply without Data
// keeps its nil Data, as Recv would return it.
func landIn(m *Message, p []byte, pool BufferSource) (*Message, error) {
	if m.Kind != KindReadResp || m.Data == nil {
		return m, nil
	}
	data := m.Data
	if pool != nil {
		defer pool.Put(data)
	}
	if len(data) > len(p) {
		return nil, fmt.Errorf("%w: %d bytes for %d", ErrOverlongReply, len(data), len(p))
	}
	m.Data = p[:copy(p, data)]
	return m, nil
}

// readPayload reads an n-byte frame body whose first len(head) bytes
// have been read already. Frames larger than recvProbe are read
// incrementally: the full allocation is only committed after the first
// recvProbe bytes actually arrive, bounding what a corrupted length
// header can cost.
func (c *Conn) readPayload(n int, head []byte, pool BufferSource) ([]byte, error) {
	get := func(sz int) []byte {
		if pool != nil {
			return pool.Get(int64(sz))
		}
		if cap(c.rbuf) >= sz {
			return c.rbuf[:sz]
		}
		return make([]byte, sz)
	}
	if n <= recvProbe {
		buf := get(n)
		if _, err := io.ReadFull(c.c, buf[copy(buf, head):]); err != nil {
			return nil, err
		}
		return buf, nil
	}
	probe := get(recvProbe)
	if _, err := io.ReadFull(c.c, probe[copy(probe, head):]); err != nil {
		return nil, err
	}
	var full []byte
	if pool != nil {
		full = pool.Get(int64(n))
	} else {
		full = make([]byte, n)
	}
	copy(full, probe)
	if pool != nil {
		pool.Put(probe)
	} else if cap(probe) > cap(c.rbuf) {
		c.rbuf = probe[:0]
	}
	if _, err := io.ReadFull(c.c, full[recvProbe:]); err != nil {
		return nil, err
	}
	return full, nil
}

// Call sends m and waits for the next message, a convenience for
// strict request/response exchanges on a connection owned by one
// goroutine.
func (c *Conn) Call(m *Message) (*Message, error) { return c.call(m, nil, false) }

// CallInto is Call with RecvInto(p) on the receiving side: for the
// request whose answer is a chunk reply destined for p.
func (c *Conn) CallInto(m *Message, p []byte) (*Message, error) { return c.call(m, p, true) }

func (c *Conn) call(m *Message, p []byte, into bool) (*Message, error) {
	if err := c.Send(m); err != nil {
		return nil, err
	}
	resp, err := c.recv(p, into)
	if err != nil {
		return nil, err
	}
	if resp.Kind == KindError {
		return nil, &RemoteError{Msg: resp.Err}
	}
	return resp, nil
}
