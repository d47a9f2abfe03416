package palermo

// Client is the remote form of ShardedStore: the same
// Read/Write/ReadBatch/WriteBatch/Stats surface, executed over TCP against
// a palermo.Server (or cmd/palermo-server) speaking the internal/wire
// protocol.
//
//	cl, _ := palermo.Dial("127.0.0.1:7070", palermo.ClientConfig{})
//	defer cl.Close()
//	cl.Write(42, payload)
//	data, _ := cl.Read(42)
//
// Concurrency model: a Client is safe for any number of goroutines. Each
// of its connections runs a mux goroutine (serializes request frames) and
// a reader goroutine (resolves responses by request id), so one
// connection carries many in-flight operations. A call goes to the first
// connection whose 64-frame window has room, so concurrent calls share
// one socket's writes, and a later connection carries traffic only while
// the earlier ones are full. Every call is exactly one request
// frame: concurrent single-block calls are batched where they meet, by the
// shard worker (DESIGN.md §6), and an explicit ReadBatch/WriteBatch is one
// frame, never split or merged, preserving its atomic dedup semantics.
//
// Frames share a write(2) by yielding, never by waiting: when its queue
// runs dry the mux yields the processor once, so callers that were about
// to submit get to, and flushes the socket only if none did. A lone call
// is flushed after at most one yield; there is no timer and nothing to
// tune. Frames are encoded in place into a buffer the mux owns, response
// headers are parsed in the reader's buffer and payloads read into pooled
// buffers, Read's call and result channel are pooled, and each block is
// copied exactly once, to its caller.
//
// Every operation has a *Ctx variant; cancelling the context abandons the
// wait, and the eventual response is discarded. Operations against a
// closed client or a draining server return an error satisfying
// errors.Is(err, palermo.ErrClosed).
//
// A connection that breaks (server restart, idle-timeout reap, network
// fault) fails its in-flight operations, and the next operation that
// reaches its pool slot re-dials it transparently — a long-lived client
// survives server idle disconnects. Dial and a redial open a connection
// the same way: a TCP dial and a Stats handshake under one DialTimeout
// deadline, so a peer that accepts and never answers fails the open
// instead of hanging it, a restarted server's batch limit takes effect,
// and a geometry change (a different store at the same address) fails
// loudly instead of being silently adapted to. Close waits for
// outstanding responses; ClientConfig.CloseTimeout bounds that wait
// against a stalled peer.

import (
	"bufio"
	"context"
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

// ClientConfig tunes a client. The zero value uses the defaults.
type ClientConfig struct {
	// Conns is the most connections the client spreads operations over;
	// Dial opens them all. A call goes to the first connection whose
	// 64-frame window has room, so a later one carries traffic only while
	// every earlier window is full; when all are full, calls round-robin.
	// Default 1.
	Conns int
	// DialTimeout bounds each connection attempt: the TCP dial and the
	// Stats handshake together. Default 5s.
	DialTimeout time.Duration
	// CloseTimeout bounds how long Close waits for outstanding responses
	// before force-closing the sockets and failing the pending operations
	// (a stalled server or network otherwise wedges Close forever).
	// 0 (the default) waits indefinitely.
	CloseTimeout time.Duration
}

// clientInFlight bounds each connection's outstanding request frames;
// further submissions block. It is the client half of the server's
// window, and equal to that window's default.
const clientInFlight = 64

func (c *ClientConfig) defaults() {
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
}

func (c ClientConfig) validate() error {
	if c.Conns < 0 {
		return fmt.Errorf("palermo: Conns must be >= 0")
	}
	if c.DialTimeout < 0 {
		return fmt.Errorf("palermo: DialTimeout must be >= 0")
	}
	if c.CloseTimeout < 0 {
		return fmt.Errorf("palermo: CloseTimeout must be >= 0")
	}
	return nil
}

// ClientNetStats counts the client side of the wire: how many request
// frames were sent and how many operations they carried.
type ClientNetStats struct {
	FramesSent uint64
	Ops        uint64
	// Deprecated: always zero. The client sends every call as its own
	// frame; concurrent single-block calls are batched by the shard worker.
	MergedOps uint64
}

// Client is a remote handle on a served store.
type Client struct {
	cfg    ClientConfig
	addr   string
	slots  []*connSlot
	next   atomic.Uint64
	blocks uint64
	shards int
	epoch  uint64 // geometry epoch pinned at Dial (0 from a standalone server)

	// serverMaxBatch is the per-frame op limit the latest handshake
	// learned: explicit batches beyond it fail client-side instead of as a
	// remote StatusBad.
	serverMaxBatch atomic.Uint64

	mu     sync.RWMutex // guards closed vs. in-flight submissions
	closed bool

	pool wire.BufPool // response frame buffers, recycled across connections

	frames, ops atomic.Uint64
}

// Dial connects to a palermo server, performs the Stats handshake to
// learn the store geometry, and returns a ready client.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	cl := &Client{cfg: cfg, addr: addr}
	for i := 0; i < cfg.Conns; i++ {
		cc, err := cl.open(i == 0)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("palermo: dial %s: %w", addr, err)
		}
		slot := &connSlot{}
		slot.cur.Store(cc)
		cl.slots = append(cl.slots, slot)
	}
	return cl, nil
}

// open dials a connection and performs the Stats handshake on it
// synchronously, both under one DialTimeout deadline, before the
// connection's mux and reader start. The first connection of a client
// pins its geometry; every later one (the rest of the pool at Dial, or a
// redial after a server restart) must report the same, or it is a
// different store, which silent adaptation would paper over. Every
// handshake refreshes the server's batch limit.
func (cl *Client) open(first bool) (*clientConn, error) {
	deadline := time.Now().Add(cl.cfg.DialTimeout)
	nc, err := dialTCP(&net.Dialer{Deadline: deadline}, cl.addr)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(deadline) // fails only on a closed socket, which the exchange reports
	body, err := roundTrip(nc, wire.OpStats, 1, nil)
	var ws wire.Stats
	if err == nil {
		ws, err = wire.ParseStats(body)
	}
	if err == nil {
		err = nc.SetDeadline(time.Time{})
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if first {
		cl.blocks, cl.shards, cl.epoch = ws.Blocks, int(ws.Shards), ws.Epoch
	} else if ws.Blocks != cl.blocks || int(ws.Shards) != cl.shards || ws.Epoch != cl.epoch {
		nc.Close()
		return nil, fmt.Errorf("server geometry changed (%d blocks / %d shards, epoch %d; client expects %d / %d, epoch %d); dial a new client",
			ws.Blocks, ws.Shards, ws.Epoch, cl.blocks, cl.shards, cl.epoch)
	}
	cl.serverMaxBatch.Store(uint64(ws.MaxBatch))
	return newClientConn(cl, nc), nil
}

// dialTCP opens a client connection; a test wraps it to count the
// client's socket writes.
var dialTCP = func(d *net.Dialer, addr string) (net.Conn, error) { return d.Dial("tcp", addr) }

// roundTrip writes one request frame on a connection that has no reader
// of its own and reads the response, which must answer op under reqID. It
// returns the body of an OK response and maps any other status to an
// error. The handshake of Client.open and the migration stream use it.
func roundTrip(nc net.Conn, op byte, reqID uint64, payload []byte) ([]byte, error) {
	if err := wire.WriteFrame(nc, op, reqID, payload); err != nil {
		return nil, err
	}
	f, err := wire.ReadFrame(nc)
	if err != nil {
		return nil, err
	}
	if f.Op != wire.Resp(op) || f.ReqID != reqID {
		return nil, fmt.Errorf("response (op %d, id %d) does not answer request (op %d, id %d)", f.Op, f.ReqID, op, reqID)
	}
	st, body, msg, err := wire.ParseResp(f.Payload)
	if err != nil {
		return nil, err
	}
	if st != wire.StatusOK {
		return nil, remoteErr(st, msg)
	}
	return body, nil
}

// batchLimit returns the largest batch frame this client may send: the
// wire format's cap, tightened by the server's advertised limit.
func (cl *Client) batchLimit() int {
	limit := wire.MaxOps
	if sm := cl.serverMaxBatch.Load(); sm > 0 && sm < uint64(limit) {
		limit = int(sm)
	}
	return limit
}

// Blocks returns the served store's capacity in blocks.
func (cl *Client) Blocks() uint64 { return cl.blocks }

// Shards returns the served store's shard count.
func (cl *Client) Shards() int { return cl.shards }

// Epoch returns the geometry epoch the Dial handshake pinned: the cluster
// placement version the server held then, or 0 from a standalone server.
// A redial to a server whose epoch has moved fails loudly ("geometry
// changed"), so a Client never silently serves across a placement flip —
// ClusterClient re-dials with a fresh manifest instead.
func (cl *Client) Epoch() uint64 { return cl.epoch }

// Read fetches a block obliviously from the remote store.
func (cl *Client) Read(id uint64) ([]byte, error) {
	return cl.ReadCtx(context.Background(), id)
}

// ReadCtx is Read with cancellation.
func (cl *Client) ReadCtx(ctx context.Context, id uint64) ([]byte, error) {
	if id >= cl.blocks {
		return nil, fmt.Errorf("palermo: block %d outside capacity %d", id, cl.blocks)
	}
	ca := callPool.Get().(*call)
	ca.op, ca.id = wire.OpRead, id
	if err := cl.start(ctx, ca); err != nil {
		callPool.Put(ca) // never queued
		return nil, err
	}
	select {
	case r := <-ca.done:
		callPool.Put(ca)
		return r.data, r.err
	case <-ctx.Done():
		// Abandoned, so never reused: the reader may still resolve into it.
		return nil, ctx.Err()
	}
}

// callPool recycles Read's calls with their result channels. A call goes
// back only once nothing can resolve into it again: refused by start, or
// its result received.
var callPool = sync.Pool{New: func() any { return &call{done: make(chan callResult, 1)} }}

// Write stores a 64-byte block obliviously in the remote store.
func (cl *Client) Write(id uint64, data []byte) error {
	return cl.WriteCtx(context.Background(), id, data)
}

// WriteCtx is Write with cancellation. Note that cancelling abandons the
// wait, not the write: a frame already sent may still commit remotely.
func (cl *Client) WriteCtx(ctx context.Context, id uint64, data []byte) error {
	if id >= cl.blocks {
		return fmt.Errorf("palermo: block %d outside capacity %d", id, cl.blocks)
	}
	if len(data) != BlockSize {
		return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockSize, len(data))
	}
	_, err := cl.do(ctx, &call{op: wire.OpWrite, id: id, data: append([]byte(nil), data...)})
	return err
}

// ReadBatch fetches many blocks in one frame, preserving the atomic
// same-block dedup semantics of ShardedStore.ReadBatch: the server
// submits the whole batch as one unit.
func (cl *Client) ReadBatch(ids []uint64) ([][]byte, error) {
	return cl.ReadBatchCtx(context.Background(), ids)
}

// ReadBatchCtx is ReadBatch with cancellation.
func (cl *Client) ReadBatchCtx(ctx context.Context, ids []uint64) ([][]byte, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	ca, err := cl.batchCall(ids, nil)
	if err != nil {
		return nil, err
	}
	// A cancelled wait may return while the frame is still queued, so the
	// call takes its own copy.
	ca.ids = append([]uint64(nil), ids...)
	r, err := cl.do(ctx, &ca)
	if err != nil {
		return nil, err
	}
	return r.batch, nil
}

// WriteBatch stores blocks[i] under ids[i] in one frame.
func (cl *Client) WriteBatch(ids []uint64, blocks [][]byte) error {
	return cl.WriteBatchCtx(context.Background(), ids, blocks)
}

// WriteBatchCtx is WriteBatch with cancellation.
func (cl *Client) WriteBatchCtx(ctx context.Context, ids []uint64, blocks [][]byte) error {
	if len(ids) != len(blocks) {
		return fmt.Errorf("palermo: WriteBatch got %d ids but %d blocks", len(ids), len(blocks))
	}
	if len(ids) == 0 {
		return nil
	}
	ca, err := cl.batchCall(ids, blocks)
	if err != nil {
		return err
	}
	ca.ids, ca.blocks = append([]uint64(nil), ids...), make([][]byte, len(blocks))
	for i, b := range blocks {
		ca.blocks[i] = append([]byte(nil), b...)
	}
	_, err = cl.do(ctx, &ca)
	return err
}

// batchCall checks a batch frame against the server's per-frame limit and
// the store's geometry, and builds its call: a write when blocks is
// non-nil, else a read. The call aliases ids and blocks, so they must stay
// unchanged until it resolves.
func (cl *Client) batchCall(ids []uint64, blocks [][]byte) (call, error) {
	if limit := cl.batchLimit(); len(ids) > limit {
		return call{}, fmt.Errorf("palermo: batch of %d ops exceeds the server limit of %d", len(ids), limit)
	}
	if err := checkBatch(cl.blocks, ids, blocks); err != nil {
		return call{}, err
	}
	if blocks == nil {
		return call{op: wire.OpReadBatch, ids: ids}, nil
	}
	return call{op: wire.OpWriteBatch, ids: ids, blocks: blocks}, nil
}

// checkBatch checks a batch's ids against a store of the given capacity
// and, for a write (blocks non-nil), the size of every block.
func checkBatch(capacity uint64, ids []uint64, blocks [][]byte) error {
	for i, id := range ids {
		if id >= capacity {
			return fmt.Errorf("palermo: block %d outside capacity %d", id, capacity)
		}
		if blocks != nil {
			if err := checkBlock(blocks[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats fetches the remote service-layer snapshot.
func (cl *Client) Stats() (ServiceStats, error) {
	ss, _, err := cl.Snapshot()
	return ss, err
}

// Traffic fetches the remote store's accumulated traffic report.
func (cl *Client) Traffic() (TrafficReport, error) {
	_, tr, err := cl.Snapshot()
	return tr, err
}

// Snapshot fetches Stats and Traffic in one wire operation. It satisfies
// internal/loadgen.Target, so the load generator drives remote stores
// exactly like in-process ones.
func (cl *Client) Snapshot() (ServiceStats, TrafficReport, error) {
	r, err := cl.do(context.Background(), &call{op: wire.OpStats})
	if err != nil {
		return ServiceStats{}, TrafficReport{}, err
	}
	ws := r.stats
	var tr TrafficReport
	tr.add(TrafficReport{
		Reads: ws.EngineReads, Writes: ws.EngineWrites,
		DRAMReads: ws.DRAMReads, DRAMWrites: ws.DRAMWrites,
		StashPeak:   int(ws.StashPeak),
		TreeTopHits: ws.TreeTopHits,
	})
	return serve.FromHists(ws.DedupHits, ws.Sheds, ws.Lat), tr, nil
}

// Manifest fetches the server's current placement manifest as canonical
// JSON (see internal/cluster). A standalone server has no manifest and
// answers with an error.
func (cl *Client) Manifest() ([]byte, error) {
	return cl.ManifestCtx(context.Background())
}

// ManifestCtx is Manifest with cancellation.
func (cl *Client) ManifestCtx(ctx context.Context) ([]byte, error) {
	r, err := cl.do(ctx, &call{op: wire.OpManifest})
	if err != nil {
		return nil, err
	}
	return r.raw, nil
}

// Migrate asks the server — which must own the shard — to push it to the
// cluster node at target and cut ownership over (the admin trigger behind
// palermo-ctl migrate). Blocks until the migration commits or fails; the
// call returning nil means the placement flipped and the shard is now
// served by target.
func (cl *Client) Migrate(shard int, target string) error {
	return cl.MigrateCtx(context.Background(), shard, target)
}

// MigrateCtx is Migrate with cancellation. Cancelling abandons the wait,
// not the migration: a request already sent may still complete remotely.
func (cl *Client) MigrateCtx(ctx context.Context, shard int, target string) error {
	if shard < 0 || shard >= cl.shards {
		return fmt.Errorf("palermo: shard %d outside store's %d shards", shard, cl.shards)
	}
	_, err := cl.do(ctx, &call{op: wire.OpMigrate, id: uint64(shard), target: target})
	return err
}

// NetStats returns the client-side wire counters.
func (cl *Client) NetStats() ClientNetStats {
	return ClientNetStats{FramesSent: cl.frames.Load(), Ops: cl.ops.Load()}
}

// Close shuts the client down gracefully: stop accepting operations,
// flush queued frames, wait for outstanding responses, then close the
// connections. With a CloseTimeout configured, a peer that never answers
// is abandoned after the deadline: the sockets are force-closed and the
// pending operations fail with a connection-lost error. Idempotent.
// Operations after Close return ErrClosed.
func (cl *Client) Close() error {
	// Arm the escape hatch before anything that can block: a submitter
	// parked on a full send queue holds the read lock, so against a
	// stalled peer even the write-lock acquisition below can wedge.
	// Force-closing the live sockets breaks the jam — readers fail,
	// readerDone closes, parked submitters bail out.
	if cl.cfg.CloseTimeout > 0 {
		t := time.AfterFunc(cl.cfg.CloseTimeout, func() {
			for _, slot := range cl.slots {
				slot.cur.Load().nc.Close()
			}
		})
		defer t.Stop()
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	// Collect every connection ever created — the live one per slot plus
	// the broken ones redials retired — and close their send queues. No
	// redial can race this: redials run under the read lock.
	var conns []*clientConn
	for _, slot := range cl.slots {
		conns = append(conns, slot.cur.Load())
		conns = append(conns, slot.retired...)
		slot.retired = nil
	}
	for _, cc := range conns {
		close(cc.sendq)
	}
	cl.mu.Unlock()
	// Second timer for the drain phase: it covers the exact connection
	// set, including one a redial swapped in after the pre-lock timer
	// fired (worst case the two phases each wait a full CloseTimeout).
	if cl.cfg.CloseTimeout > 0 {
		t := time.AfterFunc(cl.cfg.CloseTimeout, func() {
			for _, cc := range conns {
				cc.nc.Close() // readers fail, draining unblocks below
			}
		})
		defer t.Stop()
	}
	for _, cc := range conns {
		<-cc.muxDone
		cc.drainInFlight()
		cc.nc.Close()
		<-cc.readerDone
	}
	return nil
}

// do submits one call and waits for its result or ctx cancellation.
func (cl *Client) do(ctx context.Context, ca *call) (callResult, error) {
	if err := cl.start(ctx, ca); err != nil {
		return callResult{}, err
	}
	return ca.wait(ctx)
}

// start queues ca on one of the pool's connections; wait then collects its
// result. A call that start refused never reaches the server.
func (cl *Client) start(ctx context.Context, ca *call) error {
	if ca.done == nil {
		ca.done = make(chan callResult, 1)
	}
	// Holding the read lock across the (blocking, back-pressured) send is
	// the same discipline as serve.Service.enqueue: Close cannot close
	// sendq until every in-flight send has released the lock.
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	if cl.closed {
		return fmt.Errorf("palermo: client: %w", ErrClosed)
	}
	cc, err := cl.pick()
	if err != nil {
		return err
	}
	select {
	case cc.sendq <- ca:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-cc.readerDone:
		return cc.brokenErr()
	}
}

// pick returns the connection a call goes to: that of the first slot whose
// in-flight window has room, so concurrent calls share one socket's writes
// and a later connection carries traffic only past a full window. When
// every window is full it falls back to round-robin. A broken slot is
// redialled on the way. The rule reads only in-flight counts (DESIGN.md
// §8).
func (cl *Client) pick() (*clientConn, error) {
	for _, slot := range cl.slots {
		cc, err := slot.conn(cl)
		if err != nil {
			return nil, err
		}
		if len(cc.sem)+len(cc.sendq) < clientInFlight {
			return cc, nil
		}
	}
	return cl.slots[cl.next.Add(1)%uint64(len(cl.slots))].conn(cl)
}

// wait returns the result of a started call, or ctx's error if ctx ends
// first: the reader then resolves into the buffered channel later and the
// result is garbage-collected.
func (ca *call) wait(ctx context.Context) (callResult, error) {
	select {
	case r := <-ca.done:
		return r, r.err
	case <-ctx.Done():
		return callResult{}, ctx.Err()
	}
}

// call is one queued operation.
type call struct {
	op     byte
	id     uint64
	data   []byte
	ids    []uint64
	blocks [][]byte
	target string          // OpMigrate: receiving node address
	done   chan callResult // buffered; resolved exactly once
}

type callResult struct {
	data  []byte
	batch [][]byte
	raw   []byte      // OpManifest: response body, verbatim
	stats *wire.Stats // OpStats
	err   error
}

// connSlot is one position in the connection pool. The slot outlives any
// single TCP connection: when the current one breaks, the next operation
// routed here dials a replacement. Broken predecessors are parked in
// retired (their mux keeps failing late submissions) until Close reaps
// them.
type connSlot struct {
	mu      sync.Mutex // serializes redials; retired is guarded by cl.mu vs. Close
	cur     atomic.Pointer[clientConn]
	retired []*clientConn
}

// conn returns the slot's connection, transparently re-dialing a broken
// one. Called with cl.mu read-held, so a successful redial can never race
// Close (which holds the write lock to reap connections).
func (s *connSlot) conn(cl *Client) (*clientConn, error) {
	cc := s.cur.Load()
	if !cc.isBroken() {
		return cc, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cc = s.cur.Load(); !cc.isBroken() {
		return cc, nil // another caller already replaced it
	}
	fresh, err := cl.open(false)
	if err != nil {
		return nil, fmt.Errorf("palermo: client: redial %s: %w", cl.addr, err)
	}
	s.retired = append(s.retired, cc)
	s.cur.Store(fresh)
	return fresh, nil
}

// clientConn is one pooled connection: a mux goroutine owns the write
// side, a reader goroutine owns the read side.
type clientConn struct {
	cl    *Client
	nc    net.Conn
	sendq chan *call
	sem   chan struct{} // in-flight window tokens

	mu      sync.Mutex
	pending map[uint64]*call // by request id
	broken  error

	muxDone    chan struct{}
	readerDone chan struct{}
}

func newClientConn(cl *Client, nc net.Conn) *clientConn {
	cc := &clientConn{
		cl:         cl,
		nc:         nc,
		sendq:      make(chan *call, clientInFlight),
		sem:        make(chan struct{}, clientInFlight),
		pending:    make(map[uint64]*call),
		muxDone:    make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	go cc.mux()
	go cc.reader()
	return cc
}

// isBroken reports whether the connection can no longer carry operations
// (its reader died or is about to: fail marks broken before readerDone
// closes).
func (cc *clientConn) isBroken() bool {
	select {
	case <-cc.readerDone:
		return true
	default:
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.broken != nil
}

func (cc *clientConn) brokenErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.broken != nil {
		return cc.broken
	}
	return fmt.Errorf("palermo: client: connection lost")
}

// fail marks the connection broken and resolves every pending call.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.broken == nil {
		cc.broken = fmt.Errorf("palermo: client: connection lost: %w", err)
	}
	pend := cc.pending
	cc.pending = make(map[uint64]*call)
	broken := cc.broken
	cc.mu.Unlock()
	for _, ca := range pend {
		ca.done <- callResult{err: broken}
	}
}

// drainInFlight waits until every outstanding frame has been answered (or
// the connection broke), by acquiring the whole in-flight window.
func (cc *clientConn) drainInFlight() {
	for i := 0; i < cap(cc.sem); i++ {
		select {
		case cc.sem <- struct{}{}:
		case <-cc.readerDone:
			return
		}
	}
}

// muxState is what the mux goroutine owns: the socket's write side and the
// buffer frames are encoded in, reused from one frame to the next.
type muxState struct {
	cc    *clientConn
	bw    *bufio.Writer
	reqID uint64
	frame []byte
}

// mux drains the send queue, writing one request frame per call, until
// the queue closes. It flushes the socket only when the queue is still
// empty after yielding the processor once: callers about to submit get
// to, their frames share the write, and a lone call waits for nothing but
// that one yield.
func (cc *clientConn) mux() {
	defer close(cc.muxDone)
	// On any exit path, keep consuming the send queue and failing calls
	// until Close closes it: a dead connection must never strand a caller
	// that raced its submission past the mux's death. (After a clean
	// drain the queue is already closed and empty, so this is a no-op.)
	defer func() {
		for ca := range cc.sendq {
			ca.done <- callResult{err: cc.brokenErr()}
		}
	}()
	m := &muxState{cc: cc, bw: bufio.NewWriter(cc.nc)}
	for ca := range cc.sendq {
		// The mux is the queue's only receiver, so a receive from a queue
		// it has seen non-empty never blocks.
		for yielded := false; ; ca = <-cc.sendq {
			if !m.send(ca) {
				return
			}
			if len(cc.sendq) == 0 && !yielded {
				yielded = true
				runtime.Gosched()
			}
			if len(cc.sendq) == 0 {
				break
			}
		}
		if err := m.bw.Flush(); err != nil {
			cc.nc.Close() // reader notices and fails all pending
			return
		}
	}
}

// encode builds ca's request frame in m.frame.
func (m *muxState) encode(reqID uint64, ca *call) (err error) {
	m.frame = wire.BeginFrame(m.frame[:0], ca.op, reqID)
	switch ca.op {
	case wire.OpRead:
		m.frame = wire.AppendReadReq(m.frame, ca.id)
	case wire.OpWrite:
		m.frame = wire.AppendWriteReq(m.frame, ca.id, ca.data)
	case wire.OpReadBatch:
		m.frame, err = wire.AppendReadBatchReq(m.frame, ca.ids)
	case wire.OpWriteBatch:
		m.frame, err = wire.AppendWriteBatchReq(m.frame, ca.ids, ca.blocks)
	case wire.OpMigrate:
		m.frame, err = wire.AppendMigrateReq(m.frame, uint32(ca.id), ca.target)
	} // OpStats, OpManifest: no payload
	if err == nil && len(m.frame)-wire.HeaderLen > wire.MaxPayload {
		err = fmt.Errorf("%w: payload is %d bytes, limit %d", wire.ErrFrameTooLarge, len(m.frame)-wire.HeaderLen, wire.MaxPayload)
	}
	m.frame = wire.EndFrame(m.frame, 0)
	return err
}

// send encodes ca's request frame, takes its window token, registers ca
// as pending and writes the frame into the socket buffer. It reports
// false once the connection is done for: ca has then been failed, and the
// calls of frames sent earlier are failed by the reader.
func (m *muxState) send(ca *call) bool {
	cc := m.cc
	die := func() bool {
		ca.done <- callResult{err: cc.brokenErr()}
		return false
	}
	if err := m.encode(m.reqID+1, ca); err != nil {
		// Impossible by construction (sizes validated at the API); fail
		// the call rather than wedge it.
		ca.done <- callResult{err: err}
		return true
	}
	select {
	case cc.sem <- struct{}{}: // in-flight window token free: proceed
	default:
		// The window is full. Frames already buffered must reach the
		// server before we block, or the responses that release tokens can
		// never arrive: unflushed frames holding the whole window would
		// deadlock the connection.
		if err := m.bw.Flush(); err != nil {
			cc.nc.Close() // reader notices and fails all pending
			return die()
		}
		select {
		case cc.sem <- struct{}{}:
		case <-cc.readerDone:
			return die()
		}
	}
	ops := uint64(max(len(ca.ids), 1)) // an explicit batch carries len(ids) ops
	cc.mu.Lock()
	if cc.broken != nil {
		cc.mu.Unlock()
		<-cc.sem
		return die()
	}
	m.reqID++
	cc.pending[m.reqID] = ca // from here on, the reader may resolve ca
	cc.mu.Unlock()
	cc.cl.frames.Add(1)
	cc.cl.ops.Add(ops)
	if _, err := m.bw.Write(m.frame); err != nil {
		cc.nc.Close() // poison the conn; reader fails everything pending
		return false
	}
	return true
}

// reader resolves response frames against the pending map until the
// stream ends, then fails whatever is left. Frames are read into pooled
// buffers; resolve copies out what callers keep.
func (cc *clientConn) reader() {
	defer close(cc.readerDone)
	br := bufio.NewReader(cc.nc)
	for {
		f, fb, err := wire.ReadFrameBuf(br, &cc.cl.pool)
		if err != nil {
			cc.fail(err)
			return
		}
		cc.mu.Lock()
		ca, ok := cc.pending[f.ReqID]
		delete(cc.pending, f.ReqID)
		cc.mu.Unlock()
		if !ok {
			// A response to a request we never sent: the stream cannot be
			// trusted any further.
			cc.fail(fmt.Errorf("unexpected response id %d", f.ReqID))
			return
		}
		<-cc.sem
		ca.done <- resolve(ca.op, f.Payload)
		cc.cl.pool.Put(fb)
	}
}

// resolve decodes the response payload to a request of op. The payload
// aliases a pooled buffer: every block is copied, once, into what the
// caller receives.
func resolve(op byte, payload []byte) (r callResult) {
	st, body, msg, err := wire.ParseResp(payload)
	switch {
	case err != nil:
	case st != wire.StatusOK:
		err = remoteErr(st, msg)
	case op == wire.OpRead:
		if r.data, err = wire.ParseReadResp(body); err == nil {
			r.data = append([]byte(nil), r.data...)
		}
	case op == wire.OpReadBatch:
		if r.batch, err = wire.ParseReadBatchResp(body); err == nil {
			// The caller owns every block: one backing array, and the
			// batch's own slice headers re-pointed into it.
			own := append([]byte(nil), body[len(body)-len(r.batch)*wire.BlockBytes:]...)
			for i := range r.batch {
				r.batch[i] = own[i*wire.BlockBytes : (i+1)*wire.BlockBytes : (i+1)*wire.BlockBytes]
			}
		}
	case op == wire.OpStats:
		r.stats = new(wire.Stats)
		*r.stats, err = wire.ParseStats(body)
	case op == wire.OpManifest:
		r.raw = append([]byte(nil), body...)
	} // OpWrite, OpWriteBatch, OpMigrate: an OK status is the whole answer
	r.err = err
	return r
}

// remoteErr maps a wire status onto the client error surface: a draining
// or closed server satisfies errors.Is(err, ErrClosed); other statuses
// carry the server's message.
func remoteErr(st wire.Status, msg string) error {
	if st == wire.StatusClosed {
		return fmt.Errorf("palermo: remote store closed: %w", ErrClosed)
	}
	if st == wire.StatusWrongEpoch {
		if msg == "" {
			return ErrWrongEpoch
		}
		return fmt.Errorf("%s: %w", msg, ErrWrongEpoch)
	}
	if st == wire.StatusRetry {
		if msg == "" {
			return ErrRetry
		}
		return fmt.Errorf("%s: %w", msg, ErrRetry)
	}
	if msg == "" {
		msg = fmt.Sprintf("remote error (status %d)", st)
	}
	return errors.New(msg)
}
