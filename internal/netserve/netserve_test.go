package netserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palermo/internal/serve"
	"palermo/internal/stats"
	"palermo/internal/wire"
)

// fakeStore is a map-backed Store so these tests exercise the network
// layer in isolation from the ORAM stack.
type fakeStore struct {
	mu     sync.Mutex
	blocks map[uint64][]byte
	reads  uint64
	writes uint64

	gate   chan struct{} // when non-nil, Read blocks until the gate closes
	closed bool
}

func newFakeStore() *fakeStore {
	return &fakeStore{blocks: make(map[uint64][]byte)}
}

func (f *fakeStore) read(id uint64) ([]byte, error) {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, serve.ErrClosed
	}
	f.reads++
	if b, ok := f.blocks[id]; ok {
		return append([]byte(nil), b...), nil
	}
	return make([]byte, wire.BlockBytes), nil
}

func (f *fakeStore) write(id uint64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return serve.ErrClosed
	}
	if len(data) != wire.BlockBytes {
		return fmt.Errorf("fake: bad block size %d", len(data))
	}
	f.writes++
	f.blocks[id] = append([]byte(nil), data...)
	return nil
}

// async is the one sync→async adapter between the map-backed fake and the
// completion-taking Store: the operations of a frame run in order on a
// goroutine of their own (a store of unbounded workers), over copies of
// the arguments, which alias the server's frame buffer. A write's block is
// nil for a read.
func (f *fakeStore) async(ids []uint64, blocks [][]byte, done BatchCompletion) error {
	ids = append([]uint64(nil), ids...)
	for i, b := range blocks {
		blocks[i] = append([]byte(nil), b...)
	}
	go func() {
		var out [][]byte
		for i, id := range ids {
			var data []byte
			var err error
			if blocks == nil {
				data, err = f.read(id)
				out = append(out, data)
			} else {
				err = f.write(id, blocks[i])
			}
			if err != nil {
				done(nil, err)
				return
			}
		}
		done(out, nil)
	}()
	return nil
}

func (f *fakeStore) Read(id uint64, done serve.Completion) error {
	return f.async([]uint64{id}, nil, func(blocks [][]byte, err error) {
		if err != nil {
			done(0, nil, err)
		} else {
			done(0, blocks[0], nil)
		}
	})
}

func (f *fakeStore) Write(id uint64, data []byte, done serve.Completion) error {
	return f.async([]uint64{id}, [][]byte{data}, func(_ [][]byte, err error) { done(0, nil, err) })
}

func (f *fakeStore) ReadBatch(ids []uint64, done BatchCompletion) error {
	return f.async(ids, nil, done)
}

func (f *fakeStore) WriteBatch(ids []uint64, blocks [][]byte, done BatchCompletion) error {
	return f.async(ids, blocks, done)
}

func (f *fakeStore) Stats() wire.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	// The service counts reads and writes as its histograms' N; these
	// samples all fall past the bucketed range.
	lat := [4]stats.Counts{{N: f.reads, Overflow: f.reads}, {N: f.writes, Overflow: f.writes}}
	return wire.Stats{Blocks: 1 << 12, Shards: 1, Lat: lat}
}

// startServer runs a server over a loopback listener and returns its
// address plus a shutdown func.
func startServer(t *testing.T, st Store, cfg Config) (string, *Server) {
	t.Helper()
	srv, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String(), srv
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// request writes one frame and reads one response frame.
func request(t *testing.T, nc net.Conn, op byte, reqID uint64, payload []byte) wire.Frame {
	t.Helper()
	if err := wire.WriteFrame(nc, op, reqID, payload); err != nil {
		t.Fatal(err)
	}
	return readResp(t, nc)
}

func readResp(t *testing.T, nc net.Conn) wire.Frame {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// expectClosed asserts the server closes the connection (EOF/reset) rather
// than hanging or answering.
func expectClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := wire.ReadFrame(nc); err == nil {
		t.Fatalf("expected connection close, got frame op=%d", f.Op)
	}
}

// countGoroutines snapshots the goroutine count after a settle loop so
// runtime bookkeeping goroutines don't flake the leak check.
func countGoroutines() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// waitGoroutines asserts the goroutine count returns to (at most) base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		if n = countGoroutines(); n <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", base, n)
}

func TestServeRoundTrip(t *testing.T) {
	addr, _ := startServer(t, newFakeStore(), Config{})
	nc := dialRaw(t, addr)

	blk := bytes.Repeat([]byte{0x5A}, wire.BlockBytes)
	f := request(t, nc, wire.OpWrite, 1, wire.AppendWriteReq(nil, 7, blk))
	if st, _, msg, _ := wire.ParseResp(f.Payload); st != wire.StatusOK {
		t.Fatalf("write failed: %v %q", st, msg)
	}
	f = request(t, nc, wire.OpRead, 2, wire.AppendReadReq(nil, 7))
	if f.ReqID != 2 || f.Op != wire.Resp(wire.OpRead) {
		t.Fatalf("response header: %+v", f)
	}
	_, body, _, err := wire.ParseResp(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.ParseReadResp(body)
	if err != nil || !bytes.Equal(got, blk) {
		t.Fatal("read returned wrong payload")
	}
	// Stats carries the handshake geometry and the server's batch limit.
	f = request(t, nc, wire.OpStats, 3, nil)
	_, body, _, _ = wire.ParseResp(f.Payload)
	stats, err := wire.ParseStats(body)
	if err != nil || stats.Blocks != 1<<12 || stats.Lat[1].N != 1 {
		t.Fatalf("stats: %+v %v", stats, err)
	}
	if stats.MaxBatch != 4096 { // the config default, stamped by the server
		t.Fatalf("handshake MaxBatch = %d, want 4096", stats.MaxBatch)
	}
}

// TestClosePromptDespiteIdleDeadline: Close must not wait for a parked
// reader's idle deadline — the shutdown path serializes deadline writes so
// Close's immediate one wins.
func TestClosePromptDespiteIdleDeadline(t *testing.T) {
	st := newFakeStore()
	srv, err := New(st, Config{IdleTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	nc := dialRaw(t, ln.Addr().String())
	// One request so the reader has looped and re-armed its idle deadline.
	request(t, nc, wire.OpStats, 1, nil)
	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("Close took %v with an idle connection open", d)
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
}

// TestStalledReaderTornDown: a client that pipelines requests but never
// reads responses must not wedge the connection forever — the writer's
// deadline fires, the socket closes, and Close stays prompt.
func TestStalledReaderTornDown(t *testing.T) {
	base := countGoroutines()
	st := newFakeStore()
	srv, err := New(st, Config{MaxBatch: 4096, WriteTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	nc, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Pipeline several megabytes of ReadBatch responses and read none of
	// them: the kernel buffers fill, the server's writer blocks, and its
	// write deadline must tear the connection down.
	ids := make([]uint64, 4096)
	payload, err := wire.AppendReadBatchReq(nil, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		if err := wire.WriteFrame(nc, wire.OpReadBatch, i, payload); err != nil {
			break // server already closed its side — that's the point
		}
	}
	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("Close took %v with a stalled-reader connection", d)
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	nc.Close()
	waitGoroutines(t, base)
}

// TestCloseNotWedgedByStalledUnknownOpFlood: regression for the
// unwindowed reply path. Unknown-op replies are queued by the reader
// itself, without an in-flight window token — so a peer that floods
// unknown ops and never reads used to park the reader on a full response
// channel while the writer sat in a blocked nc.Write, a state Close's
// read-deadline sweep could not reach: Close waited out the full
// WriteTimeout (a minute here). The writer-dead channel plus Close's
// write-deadline sweep must unwedge it promptly.
func TestCloseNotWedgedByStalledUnknownOpFlood(t *testing.T) {
	st := newFakeStore()
	srv, err := New(st, Config{MaxInFlight: 1, WriteTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	nc, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A tiny receive window caps how many responses the kernel absorbs, so
	// the server's writer blocks after a bounded flood.
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	// Flood unknown-op frames and never read a response. The wedge has
	// formed once our own sends stall: the server's reader has stopped
	// reading (parked on its full response channel), so TCP back-pressure
	// reaches us.
	wedged := make(chan struct{})
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		frame := wire.AppendFrame(nil, 99, 1, nil) // not a request op
		chunk := bytes.Repeat(frame, 1024)
		for {
			nc.SetWriteDeadline(time.Now().Add(3 * time.Second))
			if _, err := nc.Write(chunk); err != nil {
				close(wedged)
				return
			}
		}
	}()
	select {
	case <-wedged:
	case <-time.After(30 * time.Second):
		t.Fatal("flood never stalled; cannot form the wedge this test guards")
	}
	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("Close took %v with a reader parked on the unwindowed reply path; the WriteTimeout leaked into shutdown", d)
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	nc.Close()
	<-pumpDone
}

// TestSocketKillMidResponseNoLeak aborts the connection (RST, not FIN)
// while responses — batch payloads and unwindowed unknown-op replies —
// are streaming, and asserts every connection goroutine unwinds and the
// server still serves. Under -race this also shakes out unsynchronized
// teardown between the writer's error path and the reader's reply path.
func TestSocketKillMidResponseNoLeak(t *testing.T) {
	base := countGoroutines()
	st := newFakeStore()
	srv, err := New(st, Config{MaxInFlight: 2, WriteTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	for round := 0; round < 4; round++ {
		nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		tc := nc.(*net.TCPConn)
		tc.SetReadBuffer(4 << 10)
		tc.SetLinger(0) // Close sends RST: the abortive kill
		// Interleave heavy batch reads with unknown-op frames so both the
		// windowed and the unwindowed reply paths are live at kill time.
		ids := make([]uint64, 512)
		batch, err := wire.AppendReadBatchReq(nil, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 64; i++ {
			nc.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
			if err := wire.WriteFrame(nc, wire.OpReadBatch, i, batch); err != nil {
				break // server-side back-pressure: the wedge is live, kill now
			}
			if wire.WriteFrame(nc, 99, i, nil) != nil {
				break
			}
		}
		// Read one response so the writer is mid-stream, then kill.
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		wire.ReadFrame(nc)
		nc.Close()
	}
	// The server survives every kill: a fresh connection still serves.
	nc2, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc2, wire.OpStats, 1, nil); err != nil {
		t.Fatal(err)
	}
	nc2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(nc2); err != nil {
		t.Fatalf("server wedged after socket kills: %v", err)
	}
	nc2.Close()
	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("Close took %v after mid-response socket kills", d)
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	waitGoroutines(t, base)
}

// TestPipelining sends a window of requests before reading any response
// and matches responses back by request id.
func TestPipelining(t *testing.T) {
	addr, _ := startServer(t, newFakeStore(), Config{MaxInFlight: 8})
	nc := dialRaw(t, addr)
	const n = 32
	for i := uint64(0); i < n; i++ {
		if err := wire.WriteFrame(nc, wire.OpRead, i, wire.AppendReadReq(nil, i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		f := readResp(t, nc)
		if f.Op != wire.Resp(wire.OpRead) || seen[f.ReqID] {
			t.Fatalf("bad or duplicate response: %+v", f)
		}
		seen[f.ReqID] = true
	}
	if len(seen) != n {
		t.Fatalf("answered %d of %d pipelined requests", len(seen), n)
	}
}

// TestInFlightWindow proves back-pressure: with MaxInFlight=2 and a gated
// store, the server must never execute more than 2 requests concurrently.
func TestInFlightWindow(t *testing.T) {
	st := newFakeStore()
	st.gate = make(chan struct{})
	addr, _ := startServer(t, st, Config{MaxInFlight: 2})
	nc := dialRaw(t, addr)
	for i := uint64(0); i < 16; i++ {
		if err := wire.WriteFrame(nc, wire.OpRead, i, wire.AppendReadReq(nil, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Give the reader time to dispatch as much as it will.
	time.Sleep(100 * time.Millisecond)
	st.mu.Lock()
	dispatched := st.reads // gated reads increment only after the gate opens
	st.mu.Unlock()
	if dispatched != 0 {
		t.Fatalf("gated store served %d reads early", dispatched)
	}
	close(st.gate)
	for i := 0; i < 16; i++ {
		readResp(t, nc)
	}
}

func TestCorruptMagicClosesConn(t *testing.T) {
	st := newFakeStore()
	addr, _ := startServer(t, st, Config{})
	nc := dialRaw(t, addr)
	nc.Write(bytes.Repeat([]byte{0xFF}, wire.HeaderLen))
	expectClosed(t, nc)

	// The server survives: a fresh connection works.
	nc2 := dialRaw(t, addr)
	f := request(t, nc2, wire.OpStats, 1, nil)
	if st, _, _, _ := wire.ParseResp(f.Payload); st != wire.StatusOK {
		t.Fatal("server did not survive a corrupt-magic connection")
	}
}

func TestBadVersionClosesConn(t *testing.T) {
	addr, _ := startServer(t, newFakeStore(), Config{})
	nc := dialRaw(t, addr)
	hdr := wire.AppendFrame(nil, wire.OpStats, 1, nil)
	hdr[2] = 99 // future protocol version
	nc.Write(hdr)
	expectClosed(t, nc)
}

func TestTruncatedFrameClosesConn(t *testing.T) {
	addr, _ := startServer(t, newFakeStore(), Config{})
	// Truncate at several points: mid-header and mid-payload.
	full := wire.AppendFrame(nil, wire.OpWrite, 1,
		wire.AppendWriteReq(nil, 3, make([]byte, wire.BlockBytes)))
	for _, cut := range []int{3, wire.HeaderLen - 1, wire.HeaderLen + 10} {
		nc := dialRaw(t, addr)
		nc.Write(full[:cut])
		if cw, ok := nc.(*net.TCPConn); ok {
			cw.CloseWrite()
		}
		expectClosed(t, nc)
	}
}

func TestOversizedLengthClosesConn(t *testing.T) {
	addr, _ := startServer(t, newFakeStore(), Config{})
	nc := dialRaw(t, addr)
	hdr := wire.AppendFrame(nil, wire.OpRead, 1, nil)
	binary.BigEndian.PutUint32(hdr[12:16], ^uint32(0)) // 4 GB claim
	nc.Write(hdr)
	expectClosed(t, nc)
}

// TestMalformedPayloadAnswered: framing is intact, so a bad payload gets a
// typed StatusBad answer and the connection stays usable.
func TestMalformedPayloadAnswered(t *testing.T) {
	addr, _ := startServer(t, newFakeStore(), Config{MaxBatch: 4})
	nc := dialRaw(t, addr)
	cases := []struct {
		op      byte
		payload []byte
	}{
		{wire.OpRead, []byte{1, 2, 3}},             // short id
		{wire.OpWrite, wire.AppendReadReq(nil, 1)}, // missing block
		{wire.OpReadBatch, []byte{0, 0, 0, 0}},     // zero-count batch
		{99, nil},                                  // unknown op
		{wire.Resp(wire.OpRead), nil},              // a response sent as a request
	}
	for i, tc := range cases {
		f := request(t, nc, tc.op, uint64(i+1), tc.payload)
		st, _, msg, err := wire.ParseResp(f.Payload)
		if err != nil || st != wire.StatusBad {
			t.Fatalf("case %d: status %v (%q), err %v", i, st, msg, err)
		}
	}
	// Over-limit batch: parseable, but beyond the server's MaxBatch.
	big, err := wire.AppendReadBatchReq(nil, make([]uint64, 5))
	if err != nil {
		t.Fatal(err)
	}
	f := request(t, nc, wire.OpReadBatch, 42, big)
	if st, _, _, _ := wire.ParseResp(f.Payload); st != wire.StatusBad {
		t.Fatalf("over-limit batch: %v", st)
	}
	// Connection is still good.
	f = request(t, nc, wire.OpStats, 43, nil)
	if st, _, _, _ := wire.ParseResp(f.Payload); st != wire.StatusOK {
		t.Fatal("connection poisoned by malformed payload")
	}
}

// TestClosedStoreStatus: a draining store's error maps to StatusClosed.
func TestClosedStoreStatus(t *testing.T) {
	st := newFakeStore()
	st.closed = true
	addr, _ := startServer(t, st, Config{})
	nc := dialRaw(t, addr)
	f := request(t, nc, wire.OpRead, 1, wire.AppendReadReq(nil, 0))
	if code, _, _, _ := wire.ParseResp(f.Payload); code != wire.StatusClosed {
		t.Fatalf("closed store answered %v, want StatusClosed", code)
	}
}

// TestMidRequestKill kills the connection while a request is executing:
// the server must neither panic nor deadlock, and the follow-up check
// proves it still serves.
func TestMidRequestKill(t *testing.T) {
	st := newFakeStore()
	st.gate = make(chan struct{})
	addr, srv := startServer(t, st, Config{})
	nc := dialRaw(t, addr)
	if err := wire.WriteFrame(nc, wire.OpRead, 1, wire.AppendReadReq(nil, 0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the request reach the gated store
	nc.Close()                        // kill mid-request
	close(st.gate)

	nc2 := dialRaw(t, addr)
	f := request(t, nc2, wire.OpStats, 1, nil)
	if code, _, _, _ := wire.ParseResp(f.Payload); code != wire.StatusOK {
		t.Fatal("server wedged after mid-request kill")
	}
	_ = srv
}

// TestIdleTimeout: a silent connection is reaped; an active one is not.
func TestIdleTimeout(t *testing.T) {
	addr, _ := startServer(t, newFakeStore(), Config{IdleTimeout: 100 * time.Millisecond})
	nc := dialRaw(t, addr)
	expectClosed(t, nc) // no traffic: the idle deadline closes it

	nc2 := dialRaw(t, addr)
	for i := 0; i < 3; i++ {
		time.Sleep(50 * time.Millisecond) // under the idle limit each time
		f := request(t, nc2, wire.OpStats, uint64(i), nil)
		if code, _, _, _ := wire.ParseResp(f.Payload); code != wire.StatusOK {
			t.Fatal("active connection reaped")
		}
	}
}

// TestGracefulDrain: Close must let an in-flight request finish and flush
// its response before tearing the connection down.
func TestGracefulDrain(t *testing.T) {
	st := newFakeStore()
	st.gate = make(chan struct{})
	srv, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	nc := dialRaw(t, ln.Addr().String())
	if err := wire.WriteFrame(nc, wire.OpRead, 9, wire.AppendReadReq(nil, 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // request is now parked on the gate
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	time.Sleep(20 * time.Millisecond)
	close(st.gate) // let the in-flight request complete

	f := readResp(t, nc) // its response must still arrive
	if f.ReqID != 9 {
		t.Fatalf("drained response id %d, want 9", f.ReqID)
	}
	<-closed
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
}

// TestNoGoroutineLeak runs every fault path above a shared baseline and
// asserts the goroutine count returns to it — under -race this also shakes
// out unsynchronized teardown.
func TestNoGoroutineLeak(t *testing.T) {
	base := countGoroutines()
	st := newFakeStore()
	srv, err := New(st, Config{MaxInFlight: 4, IdleTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return
			}
			defer nc.Close()
			switch i % 4 {
			case 0: // healthy pipelined traffic
				for j := uint64(0); j < 8; j++ {
					wire.WriteFrame(nc, wire.OpRead, j, wire.AppendReadReq(nil, j))
				}
				for j := 0; j < 8; j++ {
					nc.SetReadDeadline(time.Now().Add(2 * time.Second))
					if _, err := wire.ReadFrame(nc); err != nil {
						return
					}
				}
			case 1: // corrupt magic
				nc.Write(bytes.Repeat([]byte{0xAB}, wire.HeaderLen))
			case 2: // truncated frame then abandon
				full := wire.AppendFrame(nil, wire.OpRead, 1, wire.AppendReadReq(nil, 0))
				nc.Write(full[:wire.HeaderLen+2])
			case 3: // mid-request kill
				wire.WriteFrame(nc, wire.OpRead, 1, wire.AppendReadReq(nil, 0))
			}
		}(i)
	}
	wg.Wait()
	srv.Close()
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	waitGoroutines(t, base)
}

// parkedStore accepts every request and completes none until release: the
// store side of a pipelined burst with nothing spawned per request.
type parkedStore struct {
	mu      sync.Mutex
	parked  []func()
	arrived chan struct{} // one receive per parked request
}

func (p *parkedStore) park(complete func()) error {
	p.mu.Lock()
	p.parked = append(p.parked, complete)
	p.mu.Unlock()
	p.arrived <- struct{}{}
	return nil
}

// release completes everything parked, on the caller's goroutine — as a
// shard worker would.
func (p *parkedStore) release() {
	p.mu.Lock()
	parked := p.parked
	p.parked = nil
	p.mu.Unlock()
	for _, complete := range parked {
		complete()
	}
}

func (p *parkedStore) Read(id uint64, done serve.Completion) error {
	return p.park(func() { done(0, make([]byte, wire.BlockBytes), nil) })
}

func (p *parkedStore) Write(id uint64, data []byte, done serve.Completion) error {
	return p.park(func() { done(0, nil, nil) })
}

func (p *parkedStore) ReadBatch(ids []uint64, done BatchCompletion) error {
	n := len(ids)
	return p.park(func() {
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = make([]byte, wire.BlockBytes)
		}
		done(blocks, nil)
	})
}

func (p *parkedStore) WriteBatch(ids []uint64, blocks [][]byte, done BatchCompletion) error {
	return p.park(func() { done(nil, nil) })
}

func (p *parkedStore) Stats() wire.Stats { return wire.Stats{Blocks: 1 << 12, Shards: 1} }

// TestCompletionNoGoroutinePerFrame: a pipelined burst of all four data
// ops, every one of them in flight inside the store at once, must not add
// a single goroutine — the reader submits and moves on, the store's
// completion queues the reply.
func TestCompletionNoGoroutinePerFrame(t *testing.T) {
	const burst = 64
	st := &parkedStore{arrived: make(chan struct{}, burst)}
	addr, _ := startServer(t, st, Config{MaxInFlight: burst})
	nc := dialRaw(t, addr)
	// One round trip so the connection's own two goroutines exist.
	request(t, nc, wire.OpStats, 1000, nil)
	base := countGoroutines()

	blk := make([]byte, wire.BlockBytes)
	ids := []uint64{1, 2, 3}
	rb, _ := wire.AppendReadBatchReq(nil, ids)
	wb, _ := wire.AppendWriteBatchReq(nil, ids, [][]byte{blk, blk, blk})
	for i := uint64(0); i < burst; i++ {
		var err error
		switch i % 4 {
		case 0:
			err = wire.WriteFrame(nc, wire.OpRead, i, wire.AppendReadReq(nil, i))
		case 1:
			err = wire.WriteFrame(nc, wire.OpWrite, i, wire.AppendWriteReq(nil, i, blk))
		case 2:
			err = wire.WriteFrame(nc, wire.OpReadBatch, i, rb)
		case 3:
			err = wire.WriteFrame(nc, wire.OpWriteBatch, i, wb)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		select {
		case <-st.arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d pipelined requests reached the store", i, burst)
		}
	}
	if n := countGoroutines(); n > base {
		t.Fatalf("%d requests in flight grew the process from %d to %d goroutines; the data path must spawn none", burst, base, n)
	}
	st.release()
	seen := make(map[uint64]bool)
	for i := 0; i < burst; i++ {
		f := readResp(t, nc)
		if status, _, msg, err := wire.ParseResp(f.Payload); err != nil || status != wire.StatusOK {
			t.Fatalf("request %d: status %v (%q), err %v", f.ReqID, status, msg, err)
		}
		seen[f.ReqID] = true
	}
	if len(seen) != burst {
		t.Fatalf("answered %d of %d requests", len(seen), burst)
	}
}

// countingListener counts the socket writes of the connections it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestCoalescedReplies: replies that are ready together leave in fewer
// socket writes than frames — the writer drains its queue into one write —
// and the server's exported counters say so; while a lone request's reply
// is written at once, after no more than a yield: a solo round trip never
// waits out a timer.
func TestCoalescedReplies(t *testing.T) {
	const burst = 32
	st := &parkedStore{arrived: make(chan struct{}, burst)}
	srv, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	done := make(chan error, 1)
	go func() { done <- srv.Serve(countingListener{ln, &writes}) }()
	defer func() {
		srv.Close()
		<-done
	}()
	nc := dialRaw(t, ln.Addr().String())

	for i := uint64(0); i < burst; i++ {
		if err := wire.WriteFrame(nc, wire.OpRead, i, wire.AppendReadReq(nil, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		<-st.arrived
	}
	st.release() // one worker completing a burst
	for i := 0; i < burst; i++ {
		readResp(t, nc)
	}
	if w := writes.Load(); w >= burst {
		t.Fatalf("%d replies ready together took %d socket writes; the writer must coalesce", burst, w)
	}
	if ns := srv.NetStats(); ns.ResponseFrames != burst || int64(ns.ResponseWrites) != writes.Load() || ns.Connections != 1 {
		t.Fatalf("NetStats = %+v, want %d frames in the %d writes counted on one connection", ns, burst, writes.Load())
	}

	// Solo round trips: each reply is its own write, and none is held back.
	const solo = 200
	rtt := make([]time.Duration, solo)
	for i := range rtt {
		t0 := time.Now()
		if err := wire.WriteFrame(nc, wire.OpRead, uint64(burst+i), wire.AppendReadReq(nil, 1)); err != nil {
			t.Fatal(err)
		}
		<-st.arrived
		st.release()
		readResp(t, nc)
		rtt[i] = time.Since(t0)
	}
	slices.Sort(rtt)
	if med := rtt[solo/2]; med > time.Millisecond {
		t.Fatalf("median solo round trip %v: a lone reply is being held back", med)
	}
	if ns := srv.NetStats(); ns.ResponseFrames != burst+solo {
		t.Fatalf("NetStats = %+v after %d more solo replies", ns, solo)
	}
}

func TestConfigValidate(t *testing.T) {
	for i, cfg := range []Config{
		{MaxInFlight: -1},
		{MaxBatch: -1},
		{MaxBatch: wire.MaxOps + 1},
		{IdleTimeout: -time.Second},
		{WriteTimeout: -time.Second},
	} {
		if _, err := New(newFakeStore(), cfg); err == nil {
			t.Fatalf("case %d: config %+v must be rejected", i, cfg)
		}
	}
}

// BenchmarkServeLoopback measures one pipelined connection's round-trip
// cost (and allocations) through the full server path: pooled frame
// receive, request dispatch, in-place pooled response encode, writer.
// The allocs/op figure is the pooled reply path's budget guard.
func BenchmarkServeLoopback(b *testing.B) {
	st := newFakeStore()
	srv, err := New(st, Config{})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	br := bufio.NewReader(nc)
	req := wire.AppendFrame(nil, wire.OpWrite, 1, wire.AppendWriteReq(nil, 7, make([]byte, wire.BlockBytes)))

	// Keep a modest request window in flight so the server's read, serve,
	// and write stages all stay busy, like a real pipelining client.
	const window = 16
	b.ReportAllocs()
	b.ResetTimer()
	inflight := 0
	for i := 0; i < b.N; i++ {
		if _, err := bw.Write(req); err != nil {
			b.Fatal(err)
		}
		inflight++
		if inflight == window {
			if err := bw.Flush(); err != nil {
				b.Fatal(err)
			}
			for ; inflight > 0; inflight-- {
				if _, err := wire.ReadFrame(br); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	bw.Flush()
	for ; inflight > 0; inflight-- {
		if _, err := wire.ReadFrame(br); err != nil {
			b.Fatal(err)
		}
	}
}
