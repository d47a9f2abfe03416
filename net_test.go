package palermo

// Tests for the public network surface: Server/Client config validation,
// one frame per call, the bounded connection opener, context cancellation,
// ErrClosed mapping across the wire, and clean teardown (no goroutine
// leaks under -race).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palermo/internal/wire"
)

// startNetStore builds a small store, serves it on a loopback socket, and
// returns a connected client. Cleanup tears everything down in order.
func startNetStore(t *testing.T, storeCfg ShardedStoreConfig, srvCfg ServerConfig, clCfg ClientConfig) (*ShardedStore, *Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveNetStore(t, ln, storeCfg, srvCfg, clCfg)
}

// serveNetStore is startNetStore on a listener the caller provides.
func serveNetStore(t *testing.T, ln net.Listener, storeCfg ShardedStoreConfig, srvCfg ServerConfig, clCfg ClientConfig) (*ShardedStore, *Client) {
	t.Helper()
	st, err := NewShardedStore(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String(), clCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
		st.Close()
	})
	return st, cl
}

func TestClientRoundTrip(t *testing.T) {
	_, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 2}, ServerConfig{}, ClientConfig{})
	if err := cl.Write(9, block(0xC3)); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(9)
	if err != nil || !bytes.Equal(got, block(0xC3)) {
		t.Fatalf("round trip failed: %v", err)
	}
	// Unwritten blocks read as zeros through the wire too.
	zero, err := cl.Read(100)
	if err != nil || !bytes.Equal(zero, make([]byte, BlockSize)) {
		t.Fatalf("unwritten block: %v", err)
	}
	// Client-side validation mirrors the store's.
	if err := cl.Write(1<<12, block(0)); err == nil || !strings.Contains(err.Error(), "outside capacity") {
		t.Fatalf("out-of-range write: %v", err)
	}
	if _, err := cl.Read(1 << 12); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := cl.Write(0, []byte("short")); err == nil {
		t.Fatal("short block accepted")
	}
	if err := cl.WriteBatch([]uint64{1, 2}, [][]byte{block(0)}); err == nil {
		t.Fatal("mismatched batch accepted")
	}
	// Empty batches are no-ops, like the in-process store.
	if out, err := cl.ReadBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty ReadBatch: %v", err)
	}
	if err := cl.WriteBatch(nil, nil); err != nil {
		t.Fatalf("empty WriteBatch: %v", err)
	}
}

func TestClientExplicitBatch(t *testing.T) {
	_, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 2}, ServerConfig{}, ClientConfig{})
	ids := []uint64{1, 2, 3, 2, 1}
	blocks := make([][]byte, len(ids))
	for i, id := range ids {
		blocks[i] = block(byte(id))
	}
	if err := cl.WriteBatch(ids, blocks); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if !bytes.Equal(got[i], block(byte(id))) {
			t.Fatalf("position %d (id %d): wrong payload", i, id)
		}
	}
	// Duplicate ids inside one explicit batch still dedup server-side.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DedupHits < 2 {
		t.Fatalf("explicit batch produced %d dedup hits, want >= 2", stats.DedupHits)
	}
}

// TestClientOneFramePerCall: concurrent single reads of one id each get
// their own frame and the right payload; batching them is the shard
// worker's job, not the client's.
func TestClientOneFramePerCall(t *testing.T) {
	_, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 2}, ServerConfig{}, ClientConfig{})
	if err := cl.Write(5, block(0x77)); err != nil {
		t.Fatal(err)
	}
	const n = 48
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cl.Read(5)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, block(0x77)) {
				errs <- errors.New("concurrent read returned wrong payload")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ns := cl.NetStats(); ns.FramesSent != ns.Ops || ns.Ops != n+1 {
		t.Fatalf("want one frame for each of %d ops: %+v", n+1, ns)
	}
}

// countingListener counts the bytes the server reads from each connection
// it accepts, in accept order. Dial opens a client's connections one after
// another, so that is the order of the client's pool slots.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := new(atomic.Int64)
	l.mu.Lock()
	l.conns = append(l.conns, n)
	l.mu.Unlock()
	return countingConn{nc, n}, nil
}

// received returns the bytes read so far from each accepted connection.
func (l *countingListener) received() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int64, len(l.conns))
	for i, n := range l.conns {
		out[i] = n.Load()
	}
	return out
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// startCountedNetStore is startNetStore behind a countingListener.
func startCountedNetStore(t *testing.T, storeCfg ShardedStoreConfig, clCfg ClientConfig) (*ShardedStore, *Client, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	st, c := serveNetStore(t, cl, storeCfg, ServerConfig{}, clCfg)
	return st, c, cl
}

// idBlock is a block that names its id, so a read answered with another
// id's block cannot pass for the right one.
func idBlock(id uint64) []byte {
	b := make([]byte, BlockSize)
	for i := 0; i < BlockSize; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], id)
	}
	return b
}

// fillIDBlocks writes idBlock(id) under every id in [0, n).
func fillIDBlocks(t *testing.T, cl *Client, n uint64) {
	t.Helper()
	var ids []uint64
	var blocks [][]byte
	for id := uint64(0); id < n; id++ {
		ids, blocks = append(ids, id), append(blocks, idBlock(id))
	}
	if err := cl.WriteBatch(ids, blocks); err != nil {
		t.Fatal(err)
	}
}

// holdShard parks shard 0's worker at a barrier until the returned
// release runs (safe to call more than once).
func holdShard(st *ShardedStore) (release func()) {
	held, gate := make(chan struct{}), make(chan struct{})
	go st.slots[0].svc.Sync(func() { close(held); <-gate })
	<-held
	return sync.OnceFunc(func() { close(gate) })
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// readFrameLen is the size of one single-block read request frame.
var readFrameLen = int64(len(wire.AppendFrame(nil, wire.OpRead, 1, wire.AppendReadReq(nil, 0))))

// TestClientFillsFirstConn: while no window is full, every call goes to
// the first connection, so concurrent calls share its writes. The second
// connection of a Conns: 2 client carries nothing past its handshake. The
// pick reads only window occupancy (DESIGN.md §8), so two runs of one
// public shape over different ids split their bytes alike.
func TestClientFillsFirstConn(t *testing.T) {
	const callers, rounds, blocks = 16, 100, 1 << 10
	split := func(idOf func(c, r int) uint64) []int64 {
		_, cl, ln := startCountedNetStore(t, ShardedStoreConfig{Blocks: blocks, Shards: 2}, ClientConfig{Conns: 2})
		fillIDBlocks(t, cl, blocks)
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					id := idOf(c, r)
					got, err := cl.Read(id)
					if err == nil && !bytes.Equal(got, idBlock(id)) {
						err = fmt.Errorf("read of block %d returned another block", id)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		got := ln.received()
		if len(got) != 2 {
			t.Fatalf("server accepted %d connections, want 2", len(got))
		}
		if got[1] != wire.HeaderLen {
			t.Fatalf("second connection carried %d bytes, want only its %d-byte handshake", got[1], wire.HeaderLen)
		}
		if want := wire.HeaderLen + callers*rounds*readFrameLen; got[0] < want {
			t.Fatalf("first connection carried %d bytes, want at least %d", got[0], want)
		}
		return got
	}
	spread := split(func(c, r int) uint64 { return uint64(r*callers+c) % blocks })
	hot := split(func(c, r int) uint64 { return uint64(c%4) * 2 })
	if fmt.Sprint(spread) != fmt.Sprint(hot) {
		t.Fatalf("per-connection bytes depend on the ids read: %v over spread ids, %v over hot ids", spread, hot)
	}
}

// TestClientSpillsPastFullWindow: a call goes to the second connection
// only when the first one's window is full. With the shard worker held, 64
// reads fill the first window and the next 8 travel on the second.
func TestClientSpillsPastFullWindow(t *testing.T) {
	st, cl, ln := startCountedNetStore(t, ShardedStoreConfig{Blocks: 1 << 10, Shards: 1}, ClientConfig{Conns: 2})
	const spill = 8
	fillIDBlocks(t, cl, clientInFlight+spill)
	first, second := cl.slots[0].cur.Load(), cl.slots[1].cur.Load()
	release := holdShard(st)
	defer release()
	errs := make(chan error, clientInFlight+spill)
	for i := 0; i < clientInFlight+spill; i++ {
		go func(id uint64) {
			got, err := cl.Read(id)
			if err == nil && !bytes.Equal(got, idBlock(id)) {
				err = fmt.Errorf("read of block %d returned another block", id)
			}
			errs <- err
		}(uint64(i))
		// One call at a time, each sent before the next starts: the pick
		// rule sees every earlier call in a window.
		cc, n := first, i+1
		if i >= clientInFlight {
			cc, n = second, i+1-clientInFlight
		}
		waitFor(t, fmt.Sprintf("read %d is in flight", i), func() bool { return len(cc.sem) == n })
	}
	release()
	for i := 0; i < clientInFlight+spill; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	got := ln.received()
	if want := wire.HeaderLen + spill*readFrameLen; got[1] != want {
		t.Fatalf("second connection carried %d bytes, want its handshake and %d read frames (%d)", got[1], spill, want)
	}
}

// TestClientCancelledCallNotReused: Read recycles its calls, but never one
// whose wait a context abandoned, because the reader still resolves into
// it when the late response arrives. Reads issued after such late
// responses must each get their own block.
func TestClientCancelledCallNotReused(t *testing.T) {
	st, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 11, Shards: 1}, ServerConfig{}, ClientConfig{})
	const cancelled, after = 32, 1000
	fillIDBlocks(t, cl, after+cancelled)
	cc := cl.slots[0].cur.Load()
	release := holdShard(st)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, cancelled)
	for i := 0; i < cancelled; i++ {
		go func(id uint64) {
			_, err := cl.ReadCtx(ctx, id)
			errs <- err
		}(after + uint64(i))
	}
	waitFor(t, "every cancelled read is in flight", func() bool { return len(cc.sem) == cancelled })
	cancel()
	for i := 0; i < cancelled; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled read returned %v", err)
		}
	}
	release()
	// The reader resolves responses in stream order, so once every late
	// response has been read and a later round trip is answered, all of
	// them have been resolved into their abandoned calls.
	waitFor(t, "every late response is read", func() bool { return len(cc.sem) == 0 })
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < after; id++ {
		got, err := cl.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, idBlock(id)) {
			t.Fatalf("read of block %d returned another block: a late result reached a reused call", id)
		}
	}
}

// TestClientHonorsServerBatchLimit: the handshake teaches the client the
// server's MaxBatch, so oversized explicit batches fail client-side with a
// descriptive error instead of a remote StatusBad.
func TestClientHonorsServerBatchLimit(t *testing.T) {
	_, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 2},
		ServerConfig{MaxBatch: 2}, ClientConfig{})
	if _, err := cl.ReadBatch([]uint64{1, 2, 3}); err == nil || !strings.Contains(err.Error(), "server limit of 2") {
		t.Fatalf("over-limit explicit batch: %v", err)
	}
	if err := cl.WriteBatch([]uint64{1, 2, 3}, [][]byte{block(1), block(2), block(3)}); err == nil || !strings.Contains(err.Error(), "server limit of 2") {
		t.Fatalf("over-limit explicit write batch: %v", err)
	}
}

// TestClientMixedWindowFull is the regression test for a mux deadlock:
// with more concurrent calls than the in-flight window, the mux keeps
// buffering frames while its queue refills, and when the window is full
// the frames holding its tokens may all still sit unflushed in the
// bufio.Writer — the server never sees them, so no token comes back and
// every caller (and Close) hangs. send must flush buffered frames before
// blocking on the window.
func TestClientMixedWindowFull(t *testing.T) {
	_, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 10, Shards: 1}, ServerConfig{}, ClientConfig{})
	const n = 4 * clientInFlight
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			if i%2 == 0 {
				_, err := cl.Read(uint64(i))
				done <- err
			} else {
				done <- cl.Write(uint64(i), block(byte(i)))
			}
		}(i)
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			cl.slots[0].cur.Load().nc.Close() // unwedge the cleanup's Close
			t.Fatalf("mixed calls deadlocked on a full window: %d of %d answered", i, n)
		}
	}
}

// TestClientRedialsBrokenConn: a connection that dies under the client
// (server idle-timeout reap, network fault) must not poison its pool slot
// forever — the next operation routed there re-dials.
func TestClientRedialsBrokenConn(t *testing.T) {
	_, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 10, Shards: 1}, ServerConfig{}, ClientConfig{})
	if err := cl.Write(7, block(0xAB)); err != nil {
		t.Fatal(err)
	}
	// Sever the pooled connection out from under the client, as an idle
	// reap would, and wait until the client has noticed.
	cc := cl.slots[0].cur.Load()
	cc.nc.Close()
	select {
	case <-cc.readerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("reader did not notice the severed connection")
	}
	// Every subsequent operation must succeed over a fresh connection.
	got, err := cl.Read(7)
	if err != nil {
		t.Fatalf("read after severed connection: %v", err)
	}
	if !bytes.Equal(got, block(0xAB)) {
		t.Fatal("read after redial returned wrong payload")
	}
	if err := cl.Write(8, block(0xCD)); err != nil {
		t.Fatalf("write after redial: %v", err)
	}
	if cur := cl.slots[0].cur.Load(); cur == cc {
		t.Fatal("slot still holds the broken connection")
	}
}

// TestClientCloseTimeout: Close against a peer that stalls completely
// after the handshake must give up after CloseTimeout, failing every
// pending operation instead of hanging forever. The nasty case: with a
// stalled peer, sent writes hold the whole in-flight window, more fill the
// send queue, and further submitters park inside start() holding the
// client's read lock — so even Close's write-lock acquisition is wedged
// until the force-close timer breaks the jam.
func TestClientCloseTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A stalled server: answers the dial handshake's Stats op, then never
	// reads another byte.
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		f, err := wire.ReadFrame(nc)
		if err != nil || f.Op != wire.OpStats {
			return
		}
		body := wire.AppendStats(nil, wire.Stats{Blocks: 1 << 10, Shards: 1})
		wire.WriteFrame(nc, wire.Resp(wire.OpStats), f.ReqID, wire.AppendOKResp(nil, body))
		<-stop
	}()
	cl, err := Dial(ln.Addr().String(), ClientConfig{CloseTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 2*clientInFlight + 8 // the window, the send queue, and parked submitters
	writeErr := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) { writeErr <- cl.Write(uint64(i), block(byte(i))) }(i)
	}
	time.Sleep(200 * time.Millisecond) // let the writers park at every stage
	closed := make(chan struct{})
	go func() { cl.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung past CloseTimeout against a stalled server")
	}
	for i := 0; i < writers; i++ {
		select {
		case err := <-writeErr:
			if err == nil {
				t.Fatal("write against a stalled server reported success")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending write not failed by the forced close")
		}
	}
}

// TestClientRedialRefreshesHandshake: a redial repeats the Stats
// handshake, so a restarted server's new batch limit takes effect and a
// restarted server with different geometry — a different store — is
// rejected instead of silently adapted to.
func TestClientRedialRefreshesHandshake(t *testing.T) {
	start := func(addr string, blocks uint64, srvCfg ServerConfig) (*ShardedStore, *Server, net.Listener, chan error) {
		st, err := NewShardedStore(ShardedStoreConfig{Blocks: blocks, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(st, srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		return st, srv, ln, done
	}
	stop := func(st *ShardedStore, srv *Server, done chan error) {
		srv.Close()
		<-done
		st.Close()
	}
	st1, srv1, ln, done1 := start("127.0.0.1:0", 1<<10, ServerConfig{})
	addr := ln.Addr().String()
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Write(1, block(0xEE)); err != nil {
		t.Fatal(err)
	}
	awaitBroken := func() {
		cc := cl.slots[0].cur.Load()
		select {
		case <-cc.readerDone:
		case <-time.After(5 * time.Second):
			t.Fatal("client never noticed the server going away")
		}
	}
	// Restart on the same address with a tighter batch limit: the redial
	// must learn it, failing oversized explicit batches client-side.
	stop(st1, srv1, done1)
	awaitBroken()
	st2, srv2, _, done2 := start(addr, 1<<10, ServerConfig{MaxBatch: 2})
	if _, err := cl.Read(1); err != nil {
		t.Fatalf("read after same-geometry restart: %v", err)
	}
	if _, err := cl.ReadBatch([]uint64{1, 2, 3}); err == nil || !strings.Contains(err.Error(), "server limit of 2") {
		t.Fatalf("stale batch limit survived the redial: %v", err)
	}
	// Restart with a different geometry: ops must fail loudly, not adapt.
	stop(st2, srv2, done2)
	awaitBroken()
	st3, srv3, _, done3 := start(addr, 1<<11, ServerConfig{})
	defer stop(st3, srv3, done3)
	if _, err := cl.Read(1); err == nil || !strings.Contains(err.Error(), "geometry changed") {
		t.Fatalf("geometry change not rejected: %v", err)
	}
}

// TestClientConcurrentHammer mirrors the ShardedStore hammer over the
// wire: disjoint id ownership per goroutine, exact read verification.
func TestClientConcurrentHammer(t *testing.T) {
	_, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 2}, ServerConfig{},
		ClientConfig{Conns: 2})
	const clients = 8
	const opsPer = 60
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := make(map[uint64]byte)
			for i := 0; i < opsPer; i++ {
				id := uint64((i*clients+c)*7%(1<<12)/clients*clients) + uint64(c)
				if id >= 1<<12 {
					id = uint64(c)
				}
				if i%3 == 0 {
					fill := byte(i + c)
					if err := cl.Write(id, block(fill)); err != nil {
						errs <- err
						return
					}
					last[id] = fill
				} else {
					got, err := cl.Read(id)
					if err != nil {
						errs <- err
						return
					}
					if want := last[id]; got[0] != want || got[BlockSize-1] != want {
						errs <- errors.New("hammer read corrupted")
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 1}, ServerConfig{}, ClientConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.ReadCtx(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: %v", err)
	}
	if err := cl.WriteCtx(ctx, 1, block(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled write: %v", err)
	}
	// The client survives cancellation: later calls still work.
	if err := cl.Write(1, block(0x11)); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(1)
	if err != nil || !bytes.Equal(got, block(0x11)) {
		t.Fatalf("post-cancel read: %v", err)
	}
	// A timeout that cannot be met abandons the wait, not the client.
	short, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	if _, err := cl.ReadCtx(short, 1); !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("timeout read: %v", err)
	}
}

// TestClientErrClosedMapping covers both closed surfaces: operations on a
// closed client, and operations against a draining server-side store.
func TestClientErrClosedMapping(t *testing.T) {
	st, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 1}, ServerConfig{}, ClientConfig{})
	// Close the server-side store while the server still accepts frames:
	// remote ops must come back as ErrClosed through the wire status.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("remote closed store: %v", err)
	}
	if err := cl.Write(1, block(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("remote closed store write: %v", err)
	}
	// Now close the client: local ErrClosed without touching the network.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal("client Close must be idempotent")
	}
	if _, err := cl.Read(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed client: %v", err)
	}
	if _, err := cl.Stats(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed client stats: %v", err)
	}
}

// TestClientErrRetryMapping: an admission deadline no queued request can
// meet sheds every operation before it touches the engine; the client
// must surface wire.StatusRetry as palermo.ErrRetry (errors.Is-able),
// and the shed count must travel the stats frame — while none of the
// shed ops count as completed work.
func TestClientErrRetryMapping(t *testing.T) {
	_, cl := startNetStore(t,
		ShardedStoreConfig{Blocks: 1 << 12, Shards: 2, AdmissionDeadline: 1},
		ServerConfig{}, ClientConfig{})
	if err := cl.Write(3, block(0xAA)); !errors.Is(err, ErrRetry) {
		t.Fatalf("shed write returned %v, want ErrRetry", err)
	}
	if _, err := cl.Read(3); !errors.Is(err, ErrRetry) {
		t.Fatalf("shed read returned %v, want ErrRetry", err)
	}
	if _, err := cl.ReadBatch([]uint64{1, 2, 3}); !errors.Is(err, ErrRetry) {
		t.Fatalf("shed batch returned %v, want ErrRetry", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sheds < 3 {
		t.Fatalf("stats frame carried %d sheds, want >= 3", st.Sheds)
	}
	if st.Reads != 0 || st.Writes != 0 {
		t.Fatalf("shed ops counted as completed work: %d reads, %d writes", st.Reads, st.Writes)
	}
}

// TestClientSurvivesDeadServer: once the server is gone, every client
// call — including ones racing into the send queue after the connection
// died — must return an error promptly, never hang.
func TestClientSurvivesDeadServer(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Write(1, block(1)); err != nil {
		t.Fatal(err)
	}
	// Kill the whole server side.
	srv.Close()
	<-done
	st.Close()
	// Every subsequent call must fail within the test's patience — the
	// old bug stranded callers whose submissions raced past the dead mux.
	for i := 0; i < 20; i++ {
		errCh := make(chan error, 1)
		go func(i int) {
			if i%2 == 0 {
				_, err := cl.Read(1)
				errCh <- err
			} else {
				errCh <- cl.Write(1, block(1))
			}
		}(i)
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatalf("call %d against a dead server succeeded", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d against a dead server hung", i)
		}
	}
}

// TestClientServerTeardownLeaksNothing spins the full stack up and down
// and checks the goroutine count returns to baseline.
func TestClientServerTeardownLeaksNothing(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(st, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		cl, err := Dial(ln.Addr().String(), ClientConfig{Conns: 2})
		if err != nil {
			t.Fatal(err)
		}
		cl.Write(1, block(1))
		cl.Read(1)
		cl.Close()
		srv.Close()
		<-done
		st.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", base, runtime.NumGoroutine())
}

// TestServerConfigValidation table-drives every ServerConfig field's
// rejection path, plus the nil-store guard.
func TestServerConfigValidation(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cases := []struct {
		name string
		cfg  ServerConfig
	}{
		{"negative MaxInFlight", ServerConfig{MaxInFlight: -1}},
		{"negative MaxBatch", ServerConfig{MaxBatch: -1}},
		{"MaxBatch beyond wire limit", ServerConfig{MaxBatch: 1<<16 + 1}},
		{"negative IdleTimeout", ServerConfig{IdleTimeout: -time.Second}},
		{"negative WriteTimeout", ServerConfig{WriteTimeout: -time.Second}},
	}
	for _, tc := range cases {
		if _, err := NewServer(st, tc.cfg); err == nil {
			t.Errorf("%s: config %+v must be rejected", tc.name, tc.cfg)
		} else if !strings.HasPrefix(err.Error(), "palermo:") {
			t.Errorf("%s: error %q lacks palermo: prefix", tc.name, err)
		}
	}
	if _, err := NewServer(nil, ServerConfig{}); err == nil {
		t.Error("nil store must be rejected")
	}
}

// TestClientConfigValidation table-drives every ClientConfig field's
// rejection path. Dial validates before connecting, so no server needed.
func TestClientConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  ClientConfig
	}{
		{"negative Conns", ClientConfig{Conns: -1}},
		{"negative DialTimeout", ClientConfig{DialTimeout: -time.Second}},
		{"negative CloseTimeout", ClientConfig{CloseTimeout: -time.Second}},
	}
	for _, tc := range cases {
		if _, err := Dial("127.0.0.1:1", tc.cfg); err == nil {
			t.Errorf("%s: config %+v must be rejected", tc.name, tc.cfg)
		} else if !strings.HasPrefix(err.Error(), "palermo:") {
			t.Errorf("%s: error %q lacks palermo: prefix", tc.name, err)
		}
	}
	// A dead address surfaces a dial error, not a hang.
	if _, err := Dial("127.0.0.1:1", ClientConfig{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Error("dial to a dead port must fail")
	}
}

// TestDialSilentPeer: a peer that accepts the connection and never
// answers the handshake must fail Dial within DialTimeout, not hang it.
func TestDialSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // held open, never read or written, until the listener closes
		}
	}()
	dialed := make(chan error, 1)
	go func() {
		cl, err := Dial(ln.Addr().String(), ClientConfig{DialTimeout: 200 * time.Millisecond})
		if err == nil {
			cl.Close()
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		if err == nil || !strings.Contains(err.Error(), "handshake") {
			t.Fatalf("Dial to a silent peer = %v, want a handshake error", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Dial to a silent peer still blocked after 3 s with a 200 ms DialTimeout")
	}
}

// TestSlowReaderDoesNotStallShardWorker: request completions run on the
// shard worker, so a connection whose peer stops reading must cost the
// worker nothing — its replies wait in the connection's own bounded queue
// while its writer sits in WriteTimeout — and a second connection to the
// same (only) shard keeps completing reads meanwhile.
func TestSlowReaderDoesNotStallShardWorker(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 12, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := NewServer(st, ServerConfig{WriteTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close() // prompt: its deadline sweep fails the stalled write
		<-served
	}()
	// The stalled peer: megabytes of ReadBatch responses requested over a
	// small receive window, none of them ever read.
	stalled, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalled.(*net.TCPConn).SetReadBuffer(4 << 10)
	const frames, perFrame = 48, 4096
	payload, err := wire.AppendReadBatchReq(nil, make([]uint64, perFrame))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < frames; i++ {
		if err := wire.WriteFrame(stalled, wire.OpReadBatch, i, payload); err != nil {
			t.Fatal(err)
		}
	}
	// The worker goes through every stalled frame although its replies
	// cannot be delivered.
	deadline := time.Now().Add(30 * time.Second)
	for st.Stats().Reads < frames*perFrame {
		if time.Now().After(deadline) {
			t.Fatalf("shard worker stalled behind the unread connection: %d of %d reads served", st.Stats().Reads, frames*perFrame)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl, err := Dial(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const reads = 200
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		if _, err := cl.Read(5); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("%d reads beside a stalled connection took %v", reads, d)
	}
	// The stall was real throughout: beyond the second connection's
	// handshake and reads, the server has handed the sockets fewer replies
	// than the first connection is owed.
	if ns := srv.NetStats(); ns.ResponseFrames >= frames+1+reads {
		t.Fatalf("the unread connection was never stalled (%+v); the test exercised nothing", ns)
	}
}

// TestClientReadAllocs guards the allocation budget of one loopback
// Client.Read after warm-up — client, wire, server and store together
// (AllocsPerRun counts every goroutine's). The frame path allocates
// nothing of its own in steady state: request frames are encoded in place
// into the mux's buffer, frame headers are parsed in the bufio buffers,
// payloads are read into pooled buffers, replies are encoded into the
// connection's write buffer, and Read's call and result channel are
// pooled. What remains is the server's completion closure, the serve
// request, the engine's plaintext and the caller's copy of the block: 4
// when last measured (5 under -race, which drops some pool puts).
func TestClientReadAllocs(t *testing.T) {
	_, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 10, Shards: 1}, ServerConfig{}, ClientConfig{})
	id := uint64(0)
	read := func() {
		id = (id + 1) % 1024
		if _, err := cl.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ {
		read()
	}
	allocs := testing.AllocsPerRun(2000, read)
	if allocs > 6 {
		t.Errorf("a loopback Client.Read allocates %.0f times, ceiling 6", allocs)
	}
	t.Logf("allocations per loopback Client.Read: %.0f", allocs)
}

// TestCompletionBatchFirstError: a batch frame spanning both shards, one of
// whose sub-batches fails, is answered with that first error — but only
// once every sub-request that was submitted has completed: the frame's
// countdown, not the failure, sends the reply.
func TestCompletionBatchFirstError(t *testing.T) {
	st, cl := startNetStore(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 2}, ServerConfig{}, ClientConfig{})
	// Shard 1 refuses its sub-batch (its service is closed); shard 0's
	// worker is held at a barrier, its sub-batch queued behind it.
	if err := st.slots[1].svc.Close(); err != nil {
		t.Fatal(err)
	}
	release := holdShard(st)
	defer release()
	ids := []uint64{0, 1, 2, 3, 4, 5} // even ids: shard 0, odd ids: shard 1
	answered := make(chan error, 1)
	go func() {
		_, err := cl.ReadBatch(ids)
		answered <- err
	}()
	waitFor(t, "the frame's shard-0 sub-batch reaches its queue", func() bool { return st.QueueDepths()[0] > 0 })
	select {
	case err := <-answered:
		t.Fatalf("frame answered (%v) while shard 0's sub-requests were still queued", err)
	default:
	}
	release()
	if err := <-answered; !errors.Is(err, ErrClosed) {
		t.Fatalf("spanning batch = %v, want the failing sub-batch's ErrClosed", err)
	}
	if reads := st.Stats().Reads; reads != 3 {
		t.Fatalf("%d of shard 0's 3 sub-requests had completed when the frame was answered", reads)
	}
}
