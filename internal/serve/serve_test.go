package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// memBackend is a deterministic in-memory Backend that counts accesses —
// a stand-in for a shard so the service layer's scheduling, dedup, and
// lifecycle can be tested in isolation.
type memBackend struct {
	blocks   map[uint64][]byte
	accesses int // backend touches (what dedup is supposed to save)
	failOn   uint64
	hasFail  bool
	closes   int   // Close calls observed (workers must close exactly once)
	closeErr error // injected Close failure
}

func newMemBackend() *memBackend { return &memBackend{blocks: make(map[uint64][]byte)} }

func (m *memBackend) Read(local uint64) ([]byte, error) {
	m.accesses++
	if m.hasFail && local == m.failOn {
		return nil, fmt.Errorf("backend: injected failure on %d", local)
	}
	if b, ok := m.blocks[local]; ok {
		return append([]byte(nil), b...), nil
	}
	return make([]byte, 64), nil
}

func (m *memBackend) Write(local uint64, data []byte) error {
	m.accesses++
	if m.hasFail && local == m.failOn {
		return fmt.Errorf("backend: injected failure on %d", local)
	}
	m.blocks[local] = append([]byte(nil), data...)
	return nil
}

func (m *memBackend) Close() error {
	m.closes++
	return m.closeErr
}

func payload(v uint64) []byte {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestServeReadWrite(t *testing.T) {
	b := newMemBackend()
	s := New([]Backend{b}, Config{})
	defer s.Close()
	if err := s.Write(0, 5, payload(42)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(got) != 42 {
		t.Fatal("round trip failed")
	}
	if _, err := s.Read(3, 0); err == nil {
		t.Fatal("out-of-range shard must error")
	}
	if _, err := s.Submit(0, Op(9), 0, nil); err == nil {
		t.Fatal("invalid op must error")
	}
}

func TestServeBatchDedup(t *testing.T) {
	b := newMemBackend()
	s := New([]Backend{b}, Config{})
	defer s.Close()
	if err := s.Write(0, 7, payload(7)); err != nil {
		t.Fatal(err)
	}
	var before int
	if err := s.Sync(0, func() { before = b.accesses }); err != nil {
		t.Fatal(err)
	}

	// 32 reads of the same block submitted atomically: exactly one backend
	// access, every future resolves to an identical private copy.
	reqs := make([]Req, 32)
	for i := range reqs {
		reqs[i] = Req{Op: OpRead, ID: 7}
	}
	futs, err := s.SubmitBatch(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var results [][]byte
	for _, f := range futs {
		data, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, data)
	}
	var after int
	if err := s.Sync(0, func() { after = b.accesses }); err != nil {
		t.Fatal(err)
	}
	if after-before != 1 {
		t.Fatalf("32 same-block reads cost %d backend accesses, want 1", after-before)
	}
	for i, r := range results {
		if !bytes.Equal(r, results[0]) {
			t.Fatalf("waiter %d got a different payload", i)
		}
	}
	// Fan-out copies are private: mutating one must not affect another.
	results[0][0] ^= 0xFF
	if bytes.Equal(results[0], results[1]) {
		t.Fatal("waiters share a payload buffer")
	}
	if st := s.Stats(); st.DedupHits != 31 {
		t.Fatalf("dedup hits = %d, want 31", st.DedupHits)
	}
}

// TestServeInlineSubmission pins what the run-to-completion worker does
// per submission instead of per op. A submission's operations are all in
// Stats by the time its first completion runs. And a read that a later
// submission of the same served batch dedups against is a private copy,
// even though the first caller already owns its result (and scribbles on
// it here).
func TestServeInlineSubmission(t *testing.T) {
	b := newMemBackend()
	s := New([]Backend{b}, Config{})
	defer s.Close()
	if err := s.Write(0, 3, payload(3)); err != nil {
		t.Fatal(err)
	}
	// Both submissions queue behind a barrier, so one batch serves them.
	held, gate := make(chan struct{}), make(chan struct{})
	go s.Sync(0, func() { close(held); <-gate })
	<-held
	var readsSeen [2]uint64
	err := s.SubmitBatchFunc(0, []Req{{Op: OpRead, ID: 3}, {Op: OpRead, ID: 4}}, func(i int, data []byte, err error) {
		readsSeen[i] = s.Stats().Reads
		data[0] ^= 0xFF
	})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := s.Submit(0, OpRead, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	got, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(3)) {
		t.Fatal("a deduplicated read saw the first caller's scribble")
	}
	if readsSeen != [2]uint64{2, 2} {
		t.Fatalf("completions saw %v reads in Stats, want the whole submission (2) each", readsSeen)
	}
	if st := s.Stats(); st.DedupHits != 1 || st.Reads != 3 {
		t.Fatalf("dedup hits %d, reads %d; want 1 and 3", st.DedupHits, st.Reads)
	}
}

// staticBackend serves one shared block and allocates nothing, so an
// allocation count over it is the service layer's own.
type staticBackend struct{ block []byte }

func (b staticBackend) Read(uint64) ([]byte, error) { return b.block, nil }
func (b staticBackend) Write(uint64, []byte) error  { return nil }
func (b staticBackend) Close() error                { return nil }

// TestSubmitBatchAllocs guards the inline path's allocation budget: a
// submission of 16 distinct reads costs submitter and worker together one
// allocation, the request slab — no request per op, no dedup-cache copy
// for an id that does not recur.
func TestSubmitBatchAllocs(t *testing.T) {
	s := New([]Backend{staticBackend{make([]byte, 64)}}, Config{})
	defer s.Close()
	reqs := make([]Req, 16)
	for i := range reqs {
		reqs[i] = Req{Op: OpRead, ID: uint64(i)}
	}
	left, served := len(reqs), make(chan struct{})
	done := func(int, []byte, error) {
		if left--; left == 0 {
			left = len(reqs)
			served <- struct{}{}
		}
	}
	n := testing.AllocsPerRun(1000, func() {
		if err := s.SubmitBatchFunc(0, reqs, done); err != nil {
			t.Fatal(err)
		}
		<-served
	})
	if n > 2 {
		t.Errorf("a 16-read submission allocates %.0f times, ceiling 2", n)
	}
	t.Logf("allocations per 16-read submission: %.0f", n)
}

func TestServeBatchWriteThenRead(t *testing.T) {
	b := newMemBackend()
	s := New([]Backend{b}, Config{})
	defer s.Close()
	// In one atomic batch: write id 3, then read it twice. Reads must see
	// the write (arrival order) and be served from the batch cache.
	futs, err := s.SubmitBatch(0, []Req{
		{Op: OpWrite, ID: 3, Data: payload(99)},
		{Op: OpRead, ID: 3},
		{Op: OpRead, ID: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := futs[0].Wait(); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs[1:] {
		data, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(data) != 99 {
			t.Fatal("read did not observe same-batch write")
		}
	}
	var accesses int
	if err := s.Sync(0, func() { accesses = b.accesses }); err != nil {
		t.Fatal(err)
	}
	if accesses != 1 {
		t.Fatalf("write+2 reads cost %d backend accesses, want 1 (reads fan out from the write)", accesses)
	}
}

func TestServeFailedWriteNotCached(t *testing.T) {
	b := newMemBackend()
	b.hasFail, b.failOn = true, 4
	s := New([]Backend{b}, Config{})
	defer s.Close()
	futs, err := s.SubmitBatch(0, []Req{
		{Op: OpWrite, ID: 4, Data: payload(1)},
		{Op: OpRead, ID: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := futs[0].Wait(); err == nil {
		t.Fatal("injected write failure not reported")
	}
	// The read must hit the backend (and fail itself), never a stale cache.
	if _, err := futs[1].Wait(); err == nil {
		t.Fatal("read after failed write served from cache")
	}
}

func TestServeSyncOrdering(t *testing.T) {
	b := newMemBackend()
	s := New([]Backend{b}, Config{QueueDepth: 64})
	defer s.Close()
	// Sync observes every operation queued ahead of it.
	var futs []*Future
	for i := 0; i < 20; i++ {
		f, err := s.Submit(0, OpWrite, uint64(i), payload(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	var n int
	if err := s.Sync(0, func() { n = len(b.blocks) }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("Sync ran before queued writes: saw %d blocks", n)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServeCloseDrainsAndRejects(t *testing.T) {
	b := newMemBackend()
	s := New([]Backend{b}, Config{QueueDepth: 128})
	var futs []*Future
	for i := 0; i < 50; i++ {
		f, err := s.Submit(0, OpWrite, uint64(i), payload(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything queued before Close completed.
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.blocks) != 50 {
		t.Fatalf("close dropped writes: %d/50 applied", len(b.blocks))
	}
	if _, err := s.Submit(0, OpRead, 0, nil); err == nil {
		t.Fatal("submit after close must error")
	}
	if err := s.Sync(0, func() {}); err == nil {
		t.Fatal("sync after close must error")
	}
	if err := s.Close(); err != nil {
		t.Fatal("close must be idempotent")
	}
	if !s.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if b.closes != 1 {
		t.Fatalf("backend closed %d times, want exactly once", b.closes)
	}
}

func TestServeErrClosedSentinel(t *testing.T) {
	s := New([]Backend{newMemBackend()}, Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(0, OpRead, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want errors.Is(_, ErrClosed)", err)
	}
	if _, err := s.SubmitBatch(0, []Req{{Op: OpRead, ID: 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatch after Close = %v, want errors.Is(_, ErrClosed)", err)
	}
}

func TestServeClosePropagatesBackendError(t *testing.T) {
	good, bad := newMemBackend(), newMemBackend()
	bad.closeErr = fmt.Errorf("disk full")
	s := New([]Backend{good, bad}, Config{})
	if err := s.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close = %v, want the backend's close error", err)
	}
	// Repeated Close keeps returning the same error (idempotent outcome),
	// without re-closing backends.
	if err := s.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("second Close = %v, want the same error", err)
	}
	if good.closes != 1 || bad.closes != 1 {
		t.Fatalf("backends closed (%d, %d) times, want exactly once each", good.closes, bad.closes)
	}
}

func TestServeConcurrentClients(t *testing.T) {
	// Many clients over few shards with a tiny queue, exercising
	// back-pressure and the race detector across the full submit path.
	backends := []Backend{newMemBackend(), newMemBackend()}
	s := New(backends, Config{QueueDepth: 4, MaxBatch: 8})
	defer s.Close()
	const clients, opsPer = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				// Each client owns a disjoint id range so reads verify
				// exactly against the client's own writes.
				id := uint64(c*opsPer + i%7)
				shard := c % 2
				want := uint64(c<<32) | uint64(i)
				if err := s.Write(shard, id, payload(want)); err != nil {
					errs <- err
					return
				}
				got, err := s.Read(shard, id)
				if err != nil {
					errs <- err
					return
				}
				if binary.LittleEndian.Uint64(got) != want {
					errs <- fmt.Errorf("client %d read stale data", c)
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
	st := s.Stats()
	if st.Reads != clients*opsPer || st.Writes != clients*opsPer {
		t.Fatalf("stats ops: %+v", st)
	}
	if st.ReadLat.N != clients*opsPer || st.ReadLat.P99Us < st.ReadLat.P50Us {
		t.Fatalf("latency summary implausible: %+v", st.ReadLat)
	}
}

// stagedMemBackend wraps memBackend with the StagedBackend surface: the
// engine-stage analog (the backend map op and access count) runs at
// Begin on the worker, while completion arrives asynchronously over a
// channel — so the pipelined worker's FIFO, dedup, and ordering logic is
// exercised with genuinely overlapped completions under -race.
type stagedMemBackend struct {
	*memBackend
	beginReads, beginWrites int
}

type fakeAccess struct{ ch chan result }

func (a fakeAccess) Wait() ([]byte, error) {
	r := <-a.ch
	return r.data, r.err
}

func (s *stagedMemBackend) BeginRead(id uint64) (Access, error) {
	s.beginReads++
	data, err := s.memBackend.Read(id)
	ch := make(chan result, 1)
	go func() { ch <- result{data: data, err: err} }()
	return fakeAccess{ch}, nil
}

func (s *stagedMemBackend) BeginWrite(id uint64, data []byte) (Access, error) {
	s.beginWrites++
	err := s.memBackend.Write(id, data)
	ch := make(chan result, 1)
	go func() { ch <- result{err: err} }()
	return fakeAccess{ch}, nil
}

// TestServePipelinedBatchDedup is TestServeBatchDedup through the
// pipelined worker: duplicate reads inside an atomic batch still collapse
// onto one backend access even with accesses in flight.
func TestServePipelinedBatchDedup(t *testing.T) {
	b := &stagedMemBackend{memBackend: newMemBackend()}
	s := New([]Backend{b}, Config{PipelineDepth: 4})
	defer s.Close()
	if err := s.Write(0, 7, payload(7)); err != nil {
		t.Fatal(err)
	}
	var before int
	if err := s.Sync(0, func() { before = b.accesses }); err != nil {
		t.Fatal(err)
	}
	reqs := make([]Req, 32)
	for i := range reqs {
		reqs[i] = Req{Op: OpRead, ID: 7}
	}
	futs, err := s.SubmitBatch(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var results [][]byte
	for _, f := range futs {
		data, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, data)
	}
	var after int
	if err := s.Sync(0, func() { after = b.accesses }); err != nil {
		t.Fatal(err)
	}
	if after-before != 1 {
		t.Fatalf("32 same-block reads cost %d backend accesses, want 1", after-before)
	}
	for i, r := range results {
		if !bytes.Equal(r, results[0]) {
			t.Fatalf("waiter %d got a different payload", i)
		}
	}
	if st := s.Stats(); st.DedupHits != 31 {
		t.Fatalf("dedup hits = %d, want 31", st.DedupHits)
	}
}

// prefetchMemBackend adds the PrefetchBackend surface to the staged mock:
// announcements are recorded (worker-goroutine calls, like BeginRead, so
// plain fields suffice) and always accepted.
type prefetchMemBackend struct {
	*stagedMemBackend
	announced []uint64
}

func (p *prefetchMemBackend) PrefetchRead(local uint64) bool {
	p.announced = append(p.announced, local)
	return true
}

// TestServePrefetchDedupOneAccess: an intra-batch duplicate read whose
// path the planner prefetched still fans out — the planner announces the
// id once (first-op-read dedup inside plan()), and the batch costs one
// backend access however many waiters share it.
func TestServePrefetchDedupOneAccess(t *testing.T) {
	b := &prefetchMemBackend{stagedMemBackend: &stagedMemBackend{memBackend: newMemBackend()}}
	s := New([]Backend{b}, Config{PipelineDepth: 4, Prefetch: true})
	defer s.Close()
	if err := s.Write(0, 7, payload(7)); err != nil {
		t.Fatal(err)
	}
	var before int
	if err := s.Sync(0, func() { before = b.accesses }); err != nil {
		t.Fatal(err)
	}
	reqs := make([]Req, 32)
	for i := range reqs {
		reqs[i] = Req{Op: OpRead, ID: 7}
	}
	futs, err := s.SubmitBatch(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		data, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(data) != 7 {
			t.Fatalf("waiter %d read wrong payload", i)
		}
	}
	var after int
	var announced []uint64
	if err := s.Sync(0, func() { after = b.accesses; announced = append([]uint64(nil), b.announced...) }); err != nil {
		t.Fatal(err)
	}
	if after-before != 1 {
		t.Fatalf("32 same-block prefetched reads cost %d backend accesses, want 1", after-before)
	}
	if len(announced) != 1 || announced[0] != 7 {
		t.Fatalf("planner announced %v, want exactly one announcement for id 7", announced)
	}
	st := s.Stats()
	if st.DedupHits != 31 {
		t.Fatalf("dedup hits = %d, want 31", st.DedupHits)
	}
	if st.PrefetchPlanned != 1 {
		t.Fatalf("PrefetchPlanned = %d, want 1", st.PrefetchPlanned)
	}
}

// TestServePrefetchSkipsWriteFirstIds: an id first touched by a write in
// the batch must not be announced — its read would fan out from the write,
// leaving the prefetched path unclaimed.
func TestServePrefetchSkipsWriteFirstIds(t *testing.T) {
	b := &prefetchMemBackend{stagedMemBackend: &stagedMemBackend{memBackend: newMemBackend()}}
	s := New([]Backend{b}, Config{PipelineDepth: 4, Prefetch: true})
	defer s.Close()
	futs, err := s.SubmitBatch(0, []Req{
		{Op: OpWrite, ID: 3, Data: payload(99)},
		{Op: OpRead, ID: 3},
		{Op: OpRead, ID: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var announced []uint64
	if err := s.Sync(0, func() { announced = append([]uint64(nil), b.announced...) }); err != nil {
		t.Fatal(err)
	}
	if len(announced) != 1 || announced[0] != 5 {
		t.Fatalf("planner announced %v, want only the read-first id 5", announced)
	}
}

// TestServePipelinedWriteThenRead: arrival-order visibility and fan-out
// from an in-flight write, through the pipeline.
func TestServePipelinedWriteThenRead(t *testing.T) {
	b := &stagedMemBackend{memBackend: newMemBackend()}
	s := New([]Backend{b}, Config{PipelineDepth: 4})
	defer s.Close()
	futs, err := s.SubmitBatch(0, []Req{
		{Op: OpWrite, ID: 3, Data: payload(99)},
		{Op: OpRead, ID: 3},
		{Op: OpRead, ID: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := futs[0].Wait(); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs[1:] {
		data, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(data) != 99 {
			t.Fatal("read did not observe same-batch write")
		}
	}
	var accesses int
	if err := s.Sync(0, func() { accesses = b.accesses }); err != nil {
		t.Fatal(err)
	}
	if accesses != 1 {
		t.Fatalf("write+2 reads cost %d backend accesses, want 1 (reads fan out from the write)", accesses)
	}
}

// TestServePipelinedFailedWriteNotCached: a failed in-flight write never
// feeds the fan-out cache.
func TestServePipelinedFailedWriteNotCached(t *testing.T) {
	mb := newMemBackend()
	mb.hasFail, mb.failOn = true, 4
	b := &stagedMemBackend{memBackend: mb}
	s := New([]Backend{b}, Config{PipelineDepth: 4})
	defer s.Close()
	futs, err := s.SubmitBatch(0, []Req{
		{Op: OpWrite, ID: 4, Data: payload(1)},
		{Op: OpRead, ID: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := futs[0].Wait(); err == nil {
		t.Fatal("injected write failure not reported")
	}
	if _, err := futs[1].Wait(); err == nil {
		t.Fatal("read after failed write served from cache")
	}
}

// TestServePipelinedConcurrentClients is the pipelined variant of the
// back-pressure/race audit, with a serial-depth control: the two
// configurations must agree on every client's read-your-write view.
func TestServePipelinedConcurrentClients(t *testing.T) {
	for _, depth := range []int{1, 4} {
		backends := []Backend{
			&stagedMemBackend{memBackend: newMemBackend()},
			&stagedMemBackend{memBackend: newMemBackend()},
		}
		s := New(backends, Config{QueueDepth: 4, MaxBatch: 8, PipelineDepth: depth})
		const clients, opsPer = 8, 150
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < opsPer; i++ {
					id := uint64(c*opsPer + i%7)
					shard := c % 2
					want := uint64(c<<32) | uint64(i)
					if err := s.Write(shard, id, payload(want)); err != nil {
						errs <- err
						return
					}
					got, err := s.Read(shard, id)
					if err != nil {
						errs <- err
						return
					}
					if binary.LittleEndian.Uint64(got) != want {
						errs <- fmt.Errorf("depth %d: client %d read stale data", depth, c)
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
		st := s.Stats()
		if st.Reads != clients*opsPer || st.Writes != clients*opsPer {
			t.Fatalf("depth %d stats ops: %+v", depth, st)
		}
		if st.QueueLat.N != 2*clients*opsPer || st.ExecLat.N != st.QueueLat.N {
			t.Fatalf("depth %d: queue/exec histograms missed ops: %+v", depth, st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeStatsBreakdown: the queue-wait/execute split covers every
// completed op and stays internally consistent.
func TestServeStatsBreakdown(t *testing.T) {
	b := newMemBackend()
	s := New([]Backend{b}, Config{})
	defer s.Close()
	for i := 0; i < 40; i++ {
		if err := s.Write(0, uint64(i), payload(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.QueueLat.N != 40 || st.ExecLat.N != 40 {
		t.Fatalf("breakdown N = %d/%d, want 40/40", st.QueueLat.N, st.ExecLat.N)
	}
	if st.QueueLat.P99Us < st.QueueLat.P50Us || st.ExecLat.P99Us < st.ExecLat.P50Us {
		t.Fatalf("implausible breakdown summaries: %+v %+v", st.QueueLat, st.ExecLat)
	}
}

// TestServeAdmissionDeadlineSheds: a deadline no queued request can meet
// drops every op at worker pickup — ErrRetry to the waiter, counted in
// Stats.Sheds, excluded from the completed-op counters and latency
// histograms, and (the §6-relevant property) the backend is never
// touched: a shed is invisible in the adversary's access view.
func TestServeAdmissionDeadlineSheds(t *testing.T) {
	b := newMemBackend()
	s := New([]Backend{b}, Config{AdmissionDeadline: 1}) // 1ns
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.Write(0, uint64(i), payload(uint64(i))); !errors.Is(err, ErrRetry) {
			t.Fatalf("write %d under 1ns deadline = %v, want ErrRetry", i, err)
		}
		if _, err := s.Read(0, uint64(i)); !errors.Is(err, ErrRetry) {
			t.Fatalf("read %d under 1ns deadline = %v, want ErrRetry", i, err)
		}
	}
	st := s.Stats()
	if st.Sheds != 16 {
		t.Fatalf("Sheds = %d, want 16", st.Sheds)
	}
	if st.Reads != 0 || st.Writes != 0 {
		t.Fatalf("shed ops counted as completed: %d reads, %d writes", st.Reads, st.Writes)
	}
	if st.ReadLat.N != 0 || st.WriteLat.N != 0 || st.ExecLat.N != 0 {
		t.Fatalf("shed ops leaked into latency histograms: %+v %+v %+v",
			st.ReadLat, st.WriteLat, st.ExecLat)
	}
	if b.accesses != 0 {
		t.Fatalf("shed ops touched the backend %d times; drops must precede any engine access", b.accesses)
	}
}

// TestServeNoDeadlineNeverSheds: the zero value disables shedding — the
// pre-existing behavior every current caller relies on.
func TestServeNoDeadlineNeverSheds(t *testing.T) {
	b := newMemBackend()
	s := New([]Backend{b}, Config{})
	defer s.Close()
	for i := 0; i < 32; i++ {
		if err := s.Write(0, uint64(i), payload(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Sheds != 0 || st.Writes != 32 {
		t.Fatalf("deadline-free service shed: %+v", st)
	}
}

// deepMemBackend adds the DeepPrefetchBackend surface: vectored announces
// with a configurable acceptance cap, posmap groups from a lookup table,
// and shard-style claim accounting — a BeginRead consumes an outstanding
// announce, DropPrefetch releases one — so announce-window leaks are
// directly observable as a nonzero outstanding count. All mutation happens
// on the worker goroutine; tests read the fields after Close or via Sync.
type deepMemBackend struct {
	*prefetchMemBackend
	sets        [][]uint64          // every PrefetchSet call's accepted prefix
	dropped     []uint64            // DropPrefetch claims, in order
	outstanding map[uint64]int      // announced minus claimed/dropped, per id
	groups      map[uint64][]uint64 // PosmapGroup answers
	accept      int                 // max lines accepted per announce call (0 = all)
	claimed     int                 // BeginReads that consumed an announce
}

func newDeepMemBackend() *deepMemBackend {
	return &deepMemBackend{
		prefetchMemBackend: &prefetchMemBackend{stagedMemBackend: &stagedMemBackend{memBackend: newMemBackend()}},
		outstanding:        make(map[uint64]int),
		groups:             make(map[uint64][]uint64),
	}
}

func (d *deepMemBackend) PrefetchRead(local uint64) bool {
	if d.accept > 0 && d.totalOutstanding() >= d.accept {
		return false
	}
	d.announced = append(d.announced, local)
	d.outstanding[local]++
	return true
}

func (d *deepMemBackend) PrefetchSet(locals []uint64) int {
	n := len(locals)
	if d.accept > 0 && n > d.accept-d.totalOutstanding() {
		n = d.accept - d.totalOutstanding()
		if n < 0 {
			n = 0
		}
	}
	if n > 0 {
		d.sets = append(d.sets, append([]uint64(nil), locals[:n]...))
	}
	for _, l := range locals[:n] {
		d.announced = append(d.announced, l)
		d.outstanding[l]++
	}
	return n
}

func (d *deepMemBackend) DropPrefetch(local uint64) bool {
	if d.outstanding[local] == 0 {
		return false
	}
	d.outstanding[local]--
	d.dropped = append(d.dropped, local)
	return true
}

func (d *deepMemBackend) PosmapGroup(local uint64, dst []uint64) []uint64 {
	return append(dst, d.groups[local]...)
}

func (d *deepMemBackend) BeginRead(id uint64) (Access, error) {
	if d.outstanding[id] > 0 {
		d.outstanding[id]--
		d.claimed++
	}
	return d.stagedMemBackend.BeginRead(id)
}

func (d *deepMemBackend) totalOutstanding() int {
	n := 0
	for _, c := range d.outstanding {
		n += c
	}
	return n
}

// TestServeShedReleasesAnnounces is the announce-leak regression: a read
// announced by the planner and then shed at the admission deadline never
// reaches BeginRead, so its accepted announce must be released with
// DropPrefetch at batch end — otherwise each shed permanently burns a
// shard prefetch-window slot.
func TestServeShedReleasesAnnounces(t *testing.T) {
	b := newDeepMemBackend()
	s := New([]Backend{b}, Config{PipelineDepth: 4, Prefetch: true, AdmissionDeadline: 1}) // 1ns: shed everything
	for i := 0; i < 8; i++ {
		if _, err := s.Read(0, uint64(i)); !errors.Is(err, ErrRetry) {
			t.Fatalf("read %d under 1ns deadline = %v, want ErrRetry", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(b.announced) == 0 {
		t.Fatal("planner announced nothing; the regression is untested")
	}
	if n := b.totalOutstanding(); n != 0 {
		t.Fatalf("%d announce window slots leaked after sheds (announced %d, dropped %d, claimed %d)",
			n, len(b.announced), len(b.dropped), b.claimed)
	}
	if len(b.dropped) != len(b.announced) {
		t.Fatalf("dropped %d of %d announces; shed reads claim nothing", len(b.dropped), len(b.announced))
	}
}

// TestServeDeepPlannerBacklog: with PrefetchDepth 2 and MaxBatch 2, six
// queued reads chunk into three predicted batches and each id is announced
// exactly once, in arrival order, through vectored PrefetchSet calls — the
// look-ahead covers future batches without re-announcing ids already out.
func TestServeDeepPlannerBacklog(t *testing.T) {
	b := newDeepMemBackend()
	s := New([]Backend{b}, Config{
		PipelineDepth: 4, Prefetch: true, PrefetchDepth: 2,
		MaxBatch: 2, QueueDepth: 16,
	})
	// Park the worker in a Sync so the six submissions queue behind it and
	// the planner sees a real backlog when it wakes.
	gate := make(chan struct{})
	syncDone := make(chan error, 1)
	go func() { syncDone <- s.Sync(0, func() { <-gate }) }()
	var futs []*Future
	for id := uint64(10); id < 16; id++ {
		f, err := s.Submit(0, OpRead, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	close(gate)
	if err := <-syncDone; err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 11, 12, 13, 14, 15}
	if !reflect.DeepEqual(b.announced, want) {
		t.Fatalf("announced %v, want each id once in arrival order %v", b.announced, want)
	}
	if n := b.totalOutstanding(); n != 0 {
		t.Fatalf("%d announces neither claimed nor dropped", n)
	}
	if len(b.dropped) != 0 {
		t.Fatalf("dropped %v; every announced read was served and must claim", b.dropped)
	}
	if b.claimed != len(want) {
		t.Fatalf("claimed %d announces, want %d", b.claimed, len(want))
	}
}

// TestServeDeepPosmapSiblings: with PosmapPrefetch on, a read's announce
// set carries its posmap-group siblings. A sibling the batch also reads is
// claimed by that read (announced once, demand-promoted, never dropped); a
// sibling nobody reads expires with the planning horizon and is released.
func TestServeDeepPosmapSiblings(t *testing.T) {
	b := newDeepMemBackend()
	b.groups[7] = []uint64{7, 8}
	b.groups[20] = []uint64{20, 21}
	s := New([]Backend{b}, Config{PipelineDepth: 4, Prefetch: true, PosmapPrefetch: true})
	// Batch 1: reads 7 and 8 — 8 rides 7's group announce and is claimed
	// by its own read, not re-announced.
	futs, err := s.SubmitBatch(0, []Req{{Op: OpRead, ID: 7}, {Op: OpRead, ID: 8}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var announced, dropped []uint64
	if err := s.Sync(0, func() {
		announced = append([]uint64(nil), b.announced...)
		dropped = append([]uint64(nil), b.dropped...)
	}); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{7, 8}; !reflect.DeepEqual(announced, want) {
		t.Fatalf("announced %v, want %v (sibling announced once, as part of the set)", announced, want)
	}
	if len(dropped) != 0 {
		t.Fatalf("dropped %v; both lines were read and claimed", dropped)
	}
	// Batch 2: read 20 alone — sibling 21 is speculative, nobody reads it,
	// and it must be dropped when its horizon expires, freeing the slot.
	if _, err := s.Read(0, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(0, 5); err != nil { // one more batch pushes the horizon past 21
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	foundDrop := false
	for _, id := range b.dropped {
		if id == 21 {
			foundDrop = true
		}
	}
	if !foundDrop {
		t.Fatalf("speculative sibling 21 never released (dropped %v)", b.dropped)
	}
	if n := b.totalOutstanding(); n != 0 {
		t.Fatalf("%d announces leaked at close", n)
	}
}

// TestServeDeepWindowDecline: announce-set lines the backend declines
// (window full) are forgotten, the declined reads still serve as plain
// demand fetches, and nothing leaks or double-claims.
func TestServeDeepWindowDecline(t *testing.T) {
	b := newDeepMemBackend()
	b.accept = 1 // window of one: every multi-line set is truncated
	s := New([]Backend{b}, Config{PipelineDepth: 4, Prefetch: true, PrefetchDepth: 4})
	futs, err := s.SubmitBatch(0, []Req{{Op: OpRead, ID: 30}, {Op: OpRead, ID: 31}, {Op: OpRead, ID: 32}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(b.announced) != 1 || b.announced[0] != 30 {
		t.Fatalf("announced %v, want only the accepted prefix [30]", b.announced)
	}
	if b.claimed != 1 || b.totalOutstanding() != 0 {
		t.Fatalf("claim accounting wrong: claimed %d, outstanding %d", b.claimed, b.totalOutstanding())
	}
}

// TestCompletionExactlyOnce pins the completion contract: every operation
// of an accepted submission has its completion run exactly once — through
// normal completion, a backend error, dedup fan-out, an admission shed and
// Close's drain, on the serial and on the pipelined worker — and a
// submission that was refused never runs it.
func TestCompletionExactlyOnce(t *testing.T) {
	const failing = 7
	failingMem := func() *memBackend {
		b := newMemBackend()
		b.hasFail, b.failOn = true, failing
		return b
	}
	for _, tc := range []struct {
		name    string
		backend Backend
		cfg     Config
		shed    bool
	}{
		{name: "serial", backend: failingMem(), cfg: Config{PipelineDepth: 1}},
		{name: "pipelined", backend: &stagedMemBackend{memBackend: failingMem()}, cfg: Config{PipelineDepth: 4}},
		{name: "shedding", backend: failingMem(), cfg: Config{AdmissionDeadline: 1}, shed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New([]Backend{tc.backend}, tc.cfg)
			// One counter and one recorded error per submitted operation.
			const singles, batches, perBatch = 64, 16, 8
			fired := make([]atomic.Int32, singles+batches*perBatch)
			errs := make([]error, len(fired))
			var late atomic.Int32 // completions of refused submissions
			var submitters sync.WaitGroup
			for c := 0; c < 4; c++ {
				submitters.Add(1)
				go func() {
					defer submitters.Done()
					for k := c; k < singles; k += 4 {
						op := OpRead
						if k%3 == 0 {
							op = OpWrite
						}
						err := s.SubmitFunc(0, op, uint64(k%16), payload(uint64(k)), func(i int, _ []byte, err error) {
							errs[k] = err
							fired[k+i].Add(1)
						})
						if err != nil {
							t.Error(err)
						}
					}
					for b := c; b < batches; b += 4 {
						reqs := make([]Req, perBatch)
						for i := range reqs {
							// Duplicate ids (dedup fan-out) and the failing id.
							reqs[i] = Req{Op: OpRead, ID: uint64(failing - i%3)}
						}
						base := singles + b*perBatch
						err := s.SubmitBatchFunc(0, reqs, func(i int, _ []byte, err error) {
							errs[base+i] = err
							fired[base+i].Add(1)
						})
						if err != nil {
							t.Error(err)
						}
					}
				}()
			}
			submitters.Wait()
			// Close drains: whatever is still queued completes before it returns.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for k := range fired {
				if n := fired[k].Load(); n != 1 {
					t.Fatalf("operation %d: completion ran %d times, want exactly once", k, n)
				}
			}
			for k, err := range errs {
				failed := k < singles && k%16 == failing || k >= singles && (k-singles)%perBatch%3 == 0
				switch {
				case tc.shed && !errors.Is(err, ErrRetry):
					t.Fatalf("operation %d under a 1ns deadline = %v, want ErrRetry", k, err)
				case !tc.shed && failed != (err != nil):
					t.Fatalf("operation %d: err = %v, backend failure expected: %v", k, err, failed)
				}
			}
			// Refused submissions: a closed service and an invalid op.
			never := func(int, []byte, error) { late.Add(1) }
			if err := s.SubmitFunc(0, OpRead, 1, nil, never); !errors.Is(err, ErrClosed) {
				t.Fatalf("submit after Close = %v, want ErrClosed", err)
			}
			if err := s.SubmitBatchFunc(0, []Req{{Op: OpRead, ID: 1}, {Op: Op(99)}}, never); err == nil {
				t.Fatal("a batch with an invalid op must be refused")
			}
			if n := late.Load(); n != 0 {
				t.Fatalf("%d completions ran for refused submissions", n)
			}
		})
	}
}
