// Package netserve is the TCP serving layer over a concurrent oblivious
// store: it speaks the internal/wire protocol, pipelines requests, and
// applies the same bounded-queue back-pressure discipline as the in-process
// service layer (internal/serve), extended across a socket.
//
// Connection anatomy: each accepted connection has exactly two goroutines.
// The reader decodes a frame, takes an in-flight window token, submits the
// request to the store with a completion, recycles the frame buffer and
// reads the next frame — it never waits for a request. The completion runs
// on the store's shard worker and only hands (op, request id, outcome) to
// the connection's bounded reply queue; the token guarantees the queue has
// room, so a worker can never block on a connection, however slow its
// peer. The writer encodes every queued reply into one buffer and sends it
// with a single write; when the queue runs dry it yields the processor
// once — never a timer — so replies that were about to be queued share the
// write. No goroutine exists per request; only the rare, long, blocking
// ops (Stats and the ExtStore family) run on their own.
//
// When MaxInFlight requests are outstanding the reader stops reading, TCP
// flow control fills the client's send window, and a pipelining client
// blocks exactly like an in-process submitter at a full shard queue.
//
// Failure discipline: a payload the store rejects is answered with a typed
// status and the connection continues; a framing violation (bad magic,
// wrong version, oversized length, truncation) poisons the stream, so the
// connection is closed — but never the server. Close drains: in-flight
// requests complete, their responses flush, then connections and the
// listener shut down. DESIGN.md §8 records why this layer observes only
// the §VI adversary's view.
package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"palermo/internal/serve"
	"palermo/internal/wire"
)

// ErrServerClosed is returned by Serve after Close, like net/http's.
var ErrServerClosed = errors.New("netserve: server closed")

// ErrWrongEpoch marks a request that named a shard this node does not own
// at its current geometry epoch — the shard migrated away (or never landed
// here). Stores wrap it so errResp answers with wire.StatusWrongEpoch, the
// loud-failure half of the cluster re-route contract: the client refetches
// the placement manifest and retries against the new owner. A frame
// answered this way executed none of its operations, so the retry can
// never duplicate work.
var ErrWrongEpoch = errors.New("wrong geometry epoch: shard not owned by this node")

// Store is the concurrent oblivious store a server fronts. It must be safe
// for concurrent use; *palermo.ShardedStore (behind the root package's
// adapter) is the canonical implementation.
//
// The four data methods are completion-taking: they validate, enqueue and
// return. A nil return promises that done runs exactly once with the
// outcome, on a goroutine of the store's choosing, and done must not block
// (serve.Completion; a single-block op's index argument is 0). A non-nil
// return means nothing was enqueued and done will never run. Arguments
// alias a pooled frame buffer: the store copies what it keeps before
// returning.
type Store interface {
	Read(id uint64, done serve.Completion) error
	Write(id uint64, data []byte, done serve.Completion) error
	ReadBatch(ids []uint64, done BatchCompletion) error
	WriteBatch(ids []uint64, blocks [][]byte, done BatchCompletion) error
	Stats() wire.Stats
}

// BatchCompletion receives a batch frame's outcome under the contract of
// serve.Completion: the blocks of a ReadBatch in request order (nil for a
// WriteBatch), or the first failure after every sub-request completed.
type BatchCompletion = func(blocks [][]byte, err error)

// ExtStore is the optional Store extension for request ops beyond the core
// read/write/stats set — the cluster layer's manifest fetch and migration
// frames. ServeExt receives the op and its payload verbatim (the payload
// aliases a pooled frame buffer: copy anything retained past the call) and
// the returned body is sent as the StatusOK response payload. Errors map
// through the same status table as core ops (ErrWrongEpoch →
// StatusWrongEpoch, serve.ErrClosed → StatusClosed, else StatusErr).
// Stores that do not implement ExtStore answer such ops with StatusBad.
type ExtStore interface {
	ServeExt(op byte, payload []byte) ([]byte, error)
}

// Config tunes a server. The zero value uses the defaults.
type Config struct {
	// MaxInFlight bounds each connection's outstanding requests (frames
	// dispatched but not yet answered). A full window stops the reader —
	// socket-level back-pressure. Default 64.
	MaxInFlight int
	// MaxBatch caps the operation count one batch frame may carry; larger
	// batches are answered with StatusBad. Default 4096 (the wire format
	// itself never exceeds wire.MaxOps).
	MaxBatch int
	// IdleTimeout closes a connection that sends no frame for this long.
	// Zero means no idle deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write, so a client that stops
	// reading cannot wedge a connection's writer forever. Default 30s.
	WriteTimeout time.Duration
}

func (c *Config) defaults() {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 4096
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
}

// Validate rejects nonsensical limits with a descriptive error.
func (c Config) Validate() error {
	if c.MaxInFlight < 0 || c.MaxBatch < 0 {
		return fmt.Errorf("netserve: MaxInFlight/MaxBatch must be >= 0")
	}
	if c.MaxBatch > wire.MaxOps {
		return fmt.Errorf("netserve: MaxBatch %d exceeds the wire format's %d-op frame limit", c.MaxBatch, wire.MaxOps)
	}
	if c.IdleTimeout < 0 || c.WriteTimeout < 0 {
		return fmt.Errorf("netserve: IdleTimeout/WriteTimeout must be >= 0")
	}
	return nil
}

// Server serves one Store over TCP.
type Server struct {
	st   Store
	cfg  Config
	pool wire.BufPool // frame buffers recycled across all connections

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool
	done   chan struct{}
	connWG sync.WaitGroup

	respFrames, respWrites atomic.Uint64
}

// NetStats counts the reply side of the wire. Frames over Writes is the
// coalescing factor: how many responses share one socket write.
type NetStats struct {
	ResponseFrames uint64 // response frames handed to a socket
	ResponseWrites uint64 // socket writes that carried them
	Connections    int    // connections open now
}

// NetStats snapshots the server's reply-path counters. All three are
// functions of request counts and arrival timing only.
func (s *Server) NetStats() NetStats {
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	return NetStats{ResponseFrames: s.respFrames.Load(), ResponseWrites: s.respWrites.Load(), Connections: n}
}

// New builds a server (validating cfg). Call Serve to start accepting.
func New(st Store, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	return &Server{
		st:    st,
		cfg:   cfg,
		conns: make(map[*conn]struct{}),
		done:  make(chan struct{}),
	}, nil
}

// Serve accepts connections on ln until Close, then returns
// ErrServerClosed. Each connection is handled on its own goroutines.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return ErrServerClosed
			default:
				return err
			}
		}
		c := &conn{
			srv: s,
			nc:  nc,
			out: make(chan reply, s.cfg.MaxInFlight), // one slot per window token
			sem: make(chan struct{}, s.cfg.MaxInFlight),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go c.run()
	}
}

// Addr returns the listener's address once Serve has been called
// (nil before).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close gracefully shuts the server down: stop accepting, stop reading new
// requests, let every in-flight request complete and its response flush,
// then close all connections and return. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
		if s.ln != nil {
			s.ln.Close()
		}
		// Unblock readers parked in ReadFrame: an immediate read deadline
		// makes the blocking read return without tearing the socket down,
		// so queued responses still flush. The write sweep likewise fails
		// a writer currently wedged in nc.Write against a peer that
		// stopped reading — otherwise Close would wait out the full
		// WriteTimeout. A healthy writer re-arms its own deadline before
		// every write, so only the stuck write is aborted.
		for c := range s.conns {
			c.nc.SetReadDeadline(time.Now())
			c.nc.SetWriteDeadline(time.Now())
		}
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return nil
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// conn is one client connection.
type conn struct {
	srv *Server
	nc  net.Conn
	out chan reply    // outcomes awaiting the writer
	sem chan struct{} // in-flight window tokens
}

// reply is one request's outcome on its way to the writer.
type reply struct {
	op     byte
	reqID  uint64
	data   []byte   // StatusOK body (nil for an ack), unless blocks is set
	blocks [][]byte // StatusOK ReadBatch body
	err    error    // non-nil: a typed error response (see errStatus)
}

// badRequest is the error of a well-framed request this layer rejects
// itself; it is answered StatusBad.
type badRequest string

func (e badRequest) Error() string { return string(e) }

// The window invariant: a request takes a token before it is dispatched
// and its reply holds that token until the writer dequeues it, so tokens
// outstanding >= replies queued and a send on out (capacity = token count)
// never blocks — which is what lets completions run on shard workers.

// run owns the connection lifecycle: spawn the writer, run the read loop,
// then drain — wait for in-flight requests, flush their responses, close.
func (c *conn) run() {
	defer c.srv.connWG.Done()
	defer c.srv.removeConn(c)
	writerDone := make(chan struct{})
	go c.writer(writerDone)
	c.readLoop()
	// Every token home means every dispatched request has completed and
	// the writer has taken its reply.
	for i := 0; i < cap(c.sem); i++ {
		c.sem <- struct{}{}
	}
	close(c.out) // writer flushes the tail and exits
	<-writerDone
	c.nc.Close()
}

// readLoop decodes frames and dispatches requests until the stream ends,
// a framing violation poisons it, or the server begins closing.
func (c *conn) readLoop() {
	br := bufio.NewReader(c.nc)
	for {
		if !c.armReadDeadline() {
			return // server closing: don't overwrite Close's immediate deadline
		}
		f, fb, err := wire.ReadFrameBuf(br, &c.srv.pool)
		if err != nil {
			// io.EOF: client closed cleanly. Deadline: idle or server
			// close. Typed wire errors: stream poisoned. All end the
			// connection; none end the server.
			return
		}
		// Every frame is answered, so every frame takes a window token,
		// the unknown op's StatusBad included.
		select {
		case c.sem <- struct{}{}:
		case <-c.srv.done:
			c.srv.pool.Put(fb)
			return
		}
		c.dispatch(f, fb)
	}
}

// dispatch submits one request (its window token taken) and returns
// without waiting for it: the store's completion queues the reply. A
// request rejected here or by the store's submit is answered at once.
func (c *conn) dispatch(f wire.Frame, fb *wire.FrameBuf) {
	var err error
	switch f.Op {
	case wire.OpRead:
		id, perr := wire.ParseReadReq(f.Payload)
		if err = bad(perr); err == nil {
			err = c.srv.st.Read(id, c.completion(f))
		}
	case wire.OpWrite:
		id, block, perr := wire.ParseWriteReq(f.Payload)
		if err = bad(perr); err == nil {
			err = c.srv.st.Write(id, block, c.completion(f))
		}
	case wire.OpReadBatch:
		ids, perr := wire.ParseReadBatchReq(f.Payload)
		if err = c.badBatch(perr, len(ids)); err == nil {
			err = c.srv.st.ReadBatch(ids, c.batchCompletion(f))
		}
	case wire.OpWriteBatch:
		ids, blocks, perr := wire.ParseWriteBatchReq(f.Payload)
		if err = c.badBatch(perr, len(ids)); err == nil {
			err = c.srv.st.WriteBatch(ids, blocks, c.batchCompletion(f))
		}
	default:
		// Stats and the extension ops are rare and may block for long (a
		// migration streams a whole shard): they run beside the reader.
		if ext, ok := c.srv.st.(ExtStore); wire.IsRequest(f.Op) && (ok || f.Op == wire.OpStats) {
			go func() {
				var body []byte
				var err error
				if f.Op == wire.OpStats {
					ws := c.srv.st.Stats()
					// Stamp the server's own limit so the handshake teaches
					// clients how large a batch frame this server accepts.
					ws.MaxBatch = uint32(c.srv.cfg.MaxBatch)
					body = wire.AppendStats(nil, ws)
				} else {
					body, err = ext.ServeExt(f.Op, f.Payload)
				}
				c.srv.pool.Put(fb)
				c.out <- reply{op: f.Op, reqID: f.ReqID, data: body, err: err}
			}()
			return
		}
		// Framing is intact, so the request id is trustworthy and the
		// connection recoverable: answer and continue.
		err = badRequest(fmt.Sprintf("unknown op %d", f.Op))
	}
	// The store copied what it keeps at submission; the frame is dead.
	c.srv.pool.Put(fb)
	if err != nil {
		c.out <- reply{op: f.Op, reqID: f.ReqID, err: err}
	}
}

// bad turns a request's parse error into its StatusBad answer.
func bad(parseErr error) error {
	if parseErr != nil {
		return badRequest(parseErr.Error())
	}
	return nil
}

// badBatch is bad for a batch frame, which must also fit the server's
// per-frame limit.
func (c *conn) badBatch(parseErr error, n int) error {
	if parseErr == nil && n > c.srv.cfg.MaxBatch {
		return badRequest(fmt.Sprintf("batch of %d ops exceeds the server limit of %d", n, c.srv.cfg.MaxBatch))
	}
	return bad(parseErr)
}

// completion is what a single-block request hands the store: it runs on a
// shard worker and must not block, which the window invariant guarantees
// of the send.
func (c *conn) completion(f wire.Frame) serve.Completion {
	op, reqID := f.Op, f.ReqID
	return func(_ int, data []byte, err error) {
		c.out <- reply{op: op, reqID: reqID, data: data, err: err}
	}
}

func (c *conn) batchCompletion(f wire.Frame) BatchCompletion {
	op, reqID := f.Op, f.ReqID
	return func(blocks [][]byte, err error) {
		c.out <- reply{op: op, reqID: reqID, blocks: blocks, err: err}
	}
}

// armReadDeadline re-arms the idle deadline for the next frame read and
// reports whether the reader should continue. Lock-free — the hot receive
// path must not serialize every connection on the server mutex. The
// ordering still protects Close's immediate deadline: close(s.done)
// happens before Close's deadline sweep, so a reader whose idle deadline
// could have overwritten the sweep necessarily observes done closed in
// the re-check below and exits instead of parking for up to IdleTimeout.
func (c *conn) armReadDeadline() bool {
	s := c.srv
	if idle := s.cfg.IdleTimeout; idle > 0 {
		c.nc.SetReadDeadline(time.Now().Add(idle))
	}
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// maxWriteBytes stops the writer gathering replies into one write once
// its buffer is this large, and is the most buffer it keeps between
// writes: a burst of large batch replies must not pin megabytes.
const maxWriteBytes = 64 << 10

// writer sends replies: it blocks for one, encodes everything else already
// queued behind it into the same buffer, yields the processor once if the
// queue ran dry — shard workers about to complete a request get to queue
// its reply — gathers again, and issues one Write under one deadline. A
// lone reply is therefore sent after at most one yield, and how many
// replies share a write depends only on when they arrived. After a write
// error it closes the socket — so the reader stops feeding a connection
// whose responses can no longer be delivered — and keeps draining
// (discarding) so window tokens keep returning until run closes out.
func (c *conn) writer(done chan struct{}) {
	defer close(done)
	var buf []byte
	failed := false
	for r := range c.out {
		// The writer is the queue's only receiver, so a receive from a
		// queue it has seen non-empty never blocks.
		frames := uint64(0)
		for yielded := false; ; r = <-c.out {
			<-c.sem // dequeued: the reply's window token goes home
			if !failed {
				buf = appendReply(buf, r)
				frames++
			}
			if len(buf) >= maxWriteBytes {
				break
			}
			if len(c.out) == 0 && !yielded {
				yielded = true
				runtime.Gosched()
			}
			if len(c.out) == 0 {
				break
			}
		}
		if !failed {
			// Counted before the write, so a peer that has read a reply
			// finds it counted.
			c.srv.respFrames.Add(frames)
			c.srv.respWrites.Add(1)
			c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
			if _, err := c.nc.Write(buf); err != nil {
				failed = true
				c.nc.Close()
			}
		}
		if cap(buf) > maxWriteBytes {
			buf = nil
		}
		buf = buf[:0]
	}
}

// appendReply appends one encoded response frame to buf, built in place:
// header, status, body.
func appendReply(buf []byte, r reply) []byte {
	start := len(buf)
	buf = wire.BeginFrame(buf, wire.Resp(r.op), r.reqID)
	err := r.err
	if err == nil && r.blocks != nil {
		buf = append(buf, byte(wire.StatusOK))
		if buf, err = wire.AppendReadBatchResp(buf, r.blocks); err != nil {
			buf = buf[:start+wire.HeaderLen] // a store answered a malformed batch
		}
	} else if err == nil {
		buf = wire.AppendOKResp(buf, r.data)
	}
	if err != nil {
		buf = wire.AppendErrResp(buf, errStatus(err), err.Error())
	}
	return wire.EndFrame(buf, start)
}

// errStatus maps an error onto a wire status: a closed/draining store is
// distinguishable (the client maps it back to palermo.ErrClosed), as are a
// shed request, a shard that moved and a request this layer rejected;
// everything else is StatusErr with its message.
func errStatus(err error) wire.Status {
	var bad badRequest
	switch {
	case errors.As(err, &bad):
		return wire.StatusBad
	case errors.Is(err, serve.ErrClosed):
		return wire.StatusClosed
	case errors.Is(err, ErrWrongEpoch):
		return wire.StatusWrongEpoch
	case errors.Is(err, serve.ErrRetry):
		return wire.StatusRetry
	}
	return wire.StatusErr
}
