package store

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cloudburst/internal/faults"
	"cloudburst/internal/netsim"
	"cloudburst/internal/wire"
)

// ServerOptions configure fault injection on a store server: when
// Faults is set, each incoming request is checked against the plan
// (attributed to Site) before it touches the store. Clock paces
// injected stalls in emulated time.
type ServerOptions struct {
	Faults *faults.Plan
	Site   string
	Clock  netsim.Clock
}

// Server exposes a Store over the wire protocol so remote sites can
// read it through (shaped) network connections. Used by the cmd/
// daemons and by integration tests; in-process deployments talk to
// stores directly.
type Server struct {
	store Store
	opts  ServerOptions
	pool  *BufferPool // recycles read buffers and wire frames

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// maxReadLen bounds a single KindReadAt request: a corrupt or hostile
// length must not translate into an arbitrary server-side allocation.
// Chunks are tens of megabytes at most; this leaves generous headroom.
const maxReadLen = 256 << 20

// hitReader is the optional Store extension a SiteBuffer implements:
// a ReadAt that also reports whether the bytes were already resident.
// A Server whose store implements it marks each KindReadResp with the
// Hit flag, so clients can attribute reads to the buffer tier.
type hitReader interface {
	ReadAtHit(name string, p []byte, off int64) (int, bool, error)
}

// lender is the optional Store extension behind copy-free replies: a
// read-only view of the stored bytes in place of a copy into a pooled
// buffer (*Mem implements it). The view goes to the connection as the
// reply's Data and nowhere else — above all not into the buffer pool,
// which would hand the store's own memory out as scratch.
type lender interface {
	Lend(name string, off, length int64) ([]byte, error)
}

// stager is the optional Store extension behind KindStage: pull a
// chunk into a shared cache without returning its bytes. Servers whose
// store lacks it answer KindStage with a remote error.
type stager interface {
	Stage(name string, off, length int64) (int64, error)
}

// Serve starts serving store on l and returns immediately; the server
// owns the listener until Close.
func Serve(l net.Listener, s Store) *Server {
	return ServeWith(l, s, ServerOptions{})
}

// ServeWith is Serve with fault-injection options.
func ServeWith(l net.Listener, s Store, opts ServerOptions) *Server {
	if opts.Clock == nil {
		opts.Clock = netsim.Instant()
	}
	srv := &Server{store: s, opts: opts, ln: l, pool: NewBufferPool()}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Transient accept failures (EMFILE, aborted handshakes)
			// must not kill the server; back off and keep listening.
			// Exit only when the listener itself is gone.
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			wc := wire.NewConn(conn)
			wc.SetBufferPool(s.pool)
			s.handle(wc)
		}()
	}
}

func (s *Server) handle(c *wire.Conn) {
	defer c.Close()
	for {
		req, err := c.Recv()
		if err != nil {
			return
		}
		if s.opts.Faults != nil && req.Kind == wire.KindReadAt {
			if d := s.opts.Faults.Decide(s.opts.Site, req.File); d.Kind != faults.None {
				switch d.Kind {
				case faults.Reset:
					// Drop the connection mid-exchange; the client sees
					// a transport error and retries on a fresh stream.
					return
				case faults.Stall:
					s.opts.Clock.Sleep(d.Stall)
				default:
					ferr := faults.RequestError(d, s.opts.Site, req.File)
					if err := c.Send(&wire.Message{Kind: wire.KindError, Err: ferr.Error()}); err != nil {
						return
					}
					continue
				}
			}
		}
		resp, recycle := s.respond(req)
		err = c.Send(&resp)
		if recycle != nil {
			// Send is done with Data; the pooled read buffer is free.
			s.pool.Put(recycle)
		}
		if err != nil {
			return
		}
	}
}

// respond answers one request. The second result, when non-nil, is the
// pooled buffer backing the response's Data, to be returned to the pool
// once the response has been sent.
func (s *Server) respond(req *wire.Message) (wire.Message, []byte) {
	fail := func(msg string) (wire.Message, []byte) {
		return wire.Message{Kind: wire.KindError, Err: msg}, nil
	}
	switch req.Kind {
	case wire.KindReadAt:
		if req.Len < 0 || req.Len > maxReadLen {
			return fail(fmt.Sprintf("store: read length %d out of range", req.Len))
		}
		data, hit, recycle, err := s.read(req)
		if err != nil && err != io.EOF {
			s.pool.Put(recycle)
			return fail(err.Error())
		}
		return wire.Message{Kind: wire.KindReadResp, Data: data, Done: err == io.EOF, Hit: hit}, recycle
	case wire.KindStat:
		size, err := s.store.Size(req.File)
		if err != nil {
			return fail(err.Error())
		}
		return wire.Message{Kind: wire.KindStatResp, Len: size}, nil
	case wire.KindList:
		names, err := s.store.List()
		if err != nil {
			return fail(err.Error())
		}
		return wire.Message{Kind: wire.KindListResp, Files: names}, nil
	case wire.KindStage:
		st, ok := s.store.(stager)
		if !ok {
			return fail("store: staging unsupported")
		}
		if req.Len < 0 || req.Len > maxReadLen {
			return fail(fmt.Sprintf("store: stage length %d out of range", req.Len))
		}
		staged, err := st.Stage(req.File, req.Off, req.Len)
		if err != nil {
			return fail(err.Error())
		}
		return wire.Message{Kind: wire.KindStageResp, Len: staged}, nil
	}
	return fail(fmt.Sprintf("store: unexpected %v", req.Kind))
}

// read serves a KindReadAt: a view lent by the store when it can lend
// (recycle stays nil — the view is not ours to pool), else a copy
// into a pooled buffer, returned as recycle.
func (s *Server) read(req *wire.Message) (data []byte, hit bool, recycle []byte, err error) {
	if l, ok := s.store.(lender); ok {
		data, err = l.Lend(req.File, req.Off, req.Len)
		return data, false, nil, err
	}
	recycle = s.pool.Get(req.Len)
	var n int
	if hr, ok := s.store.(hitReader); ok {
		n, hit, err = hr.ReadAtHit(req.File, recycle, req.Off)
	} else {
		n, err = s.store.ReadAt(req.File, recycle, req.Off)
	}
	return recycle[:n], hit, recycle, err
}

// Dialer opens a connection to a store server; netsim shapers supply
// shaped dialers for cross-site access.
type Dialer func(network, addr string) (net.Conn, error)

// Client is a Store backed by a remote Server. It maintains a pool of
// connections so the multi-threaded chunk fetcher's concurrent range
// requests each travel on their own (individually shaped) stream.
type Client struct {
	addr string
	dial Dialer
	pool *BufferPool // recycles wire frames and response Data buffers

	mu     sync.Mutex
	idle   []*wire.Conn
	closed bool
}

// NewClient returns a client for the server at addr. A nil dialer
// uses net.Dial.
func NewClient(addr string, dial Dialer) *Client {
	if dial == nil {
		dial = net.Dial
	}
	return &Client{addr: addr, dial: dial, pool: NewBufferPool()}
}

var errClientClosed = errors.New("store: client closed")

func (c *Client) get() (*wire.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	raw, err := c.dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(raw)
	conn.SetBufferPool(c.pool)
	return conn, nil
}

func (c *Client) put(conn *wire.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= 64 {
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
}

// Close tears down pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conn := range c.idle {
		conn.Close()
	}
	c.idle = nil
	return nil
}

// call runs one request/response exchange on a pooled connection. A
// chunk reply's bytes land in dst (see wire.Conn.RecvInto); the other
// requests pass nil.
func (c *Client) call(req *wire.Message, dst []byte) (*wire.Message, error) {
	conn, err := c.get()
	if err != nil {
		if errors.Is(err, errClientClosed) {
			return nil, err // deliberate shutdown: fatal
		}
		return nil, &transportError{addr: c.addr, err: err}
	}
	resp, err := conn.CallInto(req, dst)
	if err != nil {
		conn.Close()
		var re *wire.RemoteError
		if errors.As(err, &re) {
			// The server answered with an error: pass it through so the
			// retry layer classifies it by content (a SlowDown retries,
			// a not-found does not).
			return nil, err
		}
		if errors.Is(err, wire.ErrOverlongReply) {
			// The server answered more than was asked. Like a short
			// read, that is wrong on any connection: fatal, not transient.
			return nil, fmt.Errorf("store: remote %s: %w", c.addr, err)
		}
		// Transport failure: the pooled stream is broken, but a retry
		// travels a freshly dialed one, so mark it transient.
		return nil, &transportError{addr: c.addr, err: err}
	}
	c.put(conn)
	return resp, nil
}

// ReadAt implements Store.
func (c *Client) ReadAt(name string, p []byte, off int64) (int, error) {
	n, _, err := c.readAt(name, p, off)
	return n, err
}

// ReadAtHit is ReadAt plus the server's buffer-tier attribution: hit
// is true when a site buffer on the other end served the bytes from
// its resident cache. Servers fronting a plain store always answer
// hit=false, so the method is safe against any server.
func (c *Client) ReadAtHit(name string, p []byte, off int64) (int, bool, error) {
	return c.readAt(name, p, off)
}

// readAt asks for len(p) bytes at off and has the connection deliver
// the reply's bytes into p: no buffer of ours sits in between.
func (c *Client) readAt(name string, p []byte, off int64) (n int, hit bool, err error) {
	resp, err := c.call(&wire.Message{Kind: wire.KindReadAt, File: name, Off: off, Len: int64(len(p))}, p)
	if err != nil {
		return 0, false, err
	}
	n = len(resp.Data)
	if resp.Done || n < len(p) {
		return n, resp.Hit, io.EOF
	}
	return n, resp.Hit, nil
}

// Stage asks the server to pull [off, off+length) of name into its
// shared cache (a site buffer) without shipping the bytes back; it
// returns the bytes the server actually staged (0 when already
// resident). Servers without staging answer with a RemoteError.
func (c *Client) Stage(name string, off, length int64) (int64, error) {
	resp, err := c.call(&wire.Message{Kind: wire.KindStage, File: name, Off: off, Len: length}, nil)
	if err != nil {
		return 0, err
	}
	return resp.Len, nil
}

// Size implements Store.
func (c *Client) Size(name string) (int64, error) {
	resp, err := c.call(&wire.Message{Kind: wire.KindStat, File: name}, nil)
	if err != nil {
		return 0, err
	}
	return resp.Len, nil
}

// List implements Store.
func (c *Client) List() ([]string, error) {
	resp, err := c.call(&wire.Message{Kind: wire.KindList}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Files, nil
}
