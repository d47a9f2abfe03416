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
	vectors  []int // the length of each WriteMany call, in order
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

func (m *memBackend) WriteMany(ids []uint64, data [][]byte, errs []error) {
	m.vectors = append(m.vectors, len(ids))
	for i, id := range ids {
		errs[i] = m.Write(id, data[i])
	}
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

// outcome is one request's result, as its completion delivered it.
type outcome struct {
	data []byte
	err  error
}

// pending holds one buffered outcome per request of a submission, so a
// completion never blocks the worker on the test.
type pending []chan outcome

// submit enqueues reqs as one atomic submission without waiting for it.
func submit(s *Service, reqs ...Req) (pending, error) {
	p := make(pending, len(reqs))
	for i := range p {
		p[i] = make(chan outcome, 1)
	}
	if err := s.SubmitBatchFunc(reqs, func(i int, data []byte, err error) { p[i] <- outcome{data, err} }); err != nil {
		return nil, err
	}
	return p, nil
}

// wait blocks until request i of the submission completes.
func (p pending) wait(i int) ([]byte, error) {
	o := <-p[i]
	return o.data, o.err
}

func read(s *Service, id uint64) ([]byte, error) {
	p, err := submit(s, Req{Op: OpRead, ID: id})
	if err != nil {
		return nil, err
	}
	return p.wait(0)
}

func write(s *Service, id uint64, data []byte) error {
	p, err := submit(s, Req{Op: OpWrite, ID: id, Data: data})
	if err != nil {
		return err
	}
	_, err = p.wait(0)
	return err
}

func snapshot(s *Service) Stats { return MergeStats([]*Service{s}) }

func TestServeReadWrite(t *testing.T) {
	b := newMemBackend()
	s := New(b, Config{})
	defer s.Close()
	if err := write(s, 5, payload(42)); err != nil {
		t.Fatal(err)
	}
	got, err := read(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(got) != 42 {
		t.Fatal("round trip failed")
	}
	if _, err := submit(s, Req{Op: Op(9)}); err == nil {
		t.Fatal("invalid op must error")
	}
}

func TestServeBatchDedup(t *testing.T) {
	b := newMemBackend()
	s := New(b, Config{})
	defer s.Close()
	if err := write(s, 7, payload(7)); err != nil {
		t.Fatal(err)
	}
	var before int
	if err := s.Sync(func() { before = b.accesses }); err != nil {
		t.Fatal(err)
	}

	// 32 reads of the same block submitted atomically: exactly one backend
	// access, every waiter receives an identical private copy.
	reqs := make([]Req, 32)
	for i := range reqs {
		reqs[i] = Req{Op: OpRead, ID: 7}
	}
	p, err := submit(s, reqs...)
	if err != nil {
		t.Fatal(err)
	}
	var results [][]byte
	for i := range p {
		data, err := p.wait(i)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, data)
	}
	var after int
	if err := s.Sync(func() { after = b.accesses }); err != nil {
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
	if st := snapshot(s); st.DedupHits != 31 {
		t.Fatalf("dedup hits = %d, want 31", st.DedupHits)
	}
}

// TestServeCoalescingCap pins the worker's coalescing cap. One atomic
// submission is never split, however large: 100 reads of one id cost one
// backend access. Separate submissions queued together are coalesced
// into served batches of at most maxBatch operations: 100 single reads
// of one id, released at once from behind a barrier, are served as 64 and
// 36 — one access and the rest dedup hits per batch.
func TestServeCoalescingCap(t *testing.T) {
	const n = 100
	b := newMemBackend()
	s := New(b, Config{QueueDepth: 2 * n})
	defer s.Close()
	accesses := func() (a int) {
		if err := s.Sync(func() { a = b.accesses }); err != nil {
			t.Fatal(err)
		}
		return a
	}

	reqs := make([]Req, n)
	for i := range reqs {
		reqs[i] = Req{Op: OpRead, ID: 9}
	}
	p, err := submit(s, reqs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if _, err := p.wait(i); err != nil {
			t.Fatal(err)
		}
	}
	if a := accesses(); a != 1 {
		t.Fatalf("one atomic submission of %d same-id reads cost %d accesses, want 1 (never split)", n, a)
	}

	hits := snapshot(s).DedupHits
	held, gate := make(chan struct{}), make(chan struct{})
	go s.Sync(func() { close(held); <-gate })
	<-held
	singles := make([]pending, n)
	for i := range singles {
		if singles[i], err = submit(s, Req{Op: OpRead, ID: 9}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	for _, p := range singles {
		if _, err := p.wait(0); err != nil {
			t.Fatal(err)
		}
	}
	if a := accesses() - 1; a != 2 {
		t.Fatalf("%d queued single reads of one id cost %d accesses, want 2 (batches of %d and %d)", n, a, maxBatch, n-maxBatch)
	}
	if got := snapshot(s).DedupHits - hits; got != n-2 {
		t.Fatalf("%d queued single reads of one id: %d dedup hits, want %d", n, got, n-2)
	}
}

// TestServeInlineSubmission pins what the run-to-completion worker does
// per submission instead of per op. A submission's operations are all in
// the stats by the time its first completion runs. And a read that a
// later submission of the same served batch dedups against is a private
// copy, even though the first caller already owns its result (and
// scribbles on it here).
func TestServeInlineSubmission(t *testing.T) {
	b := newMemBackend()
	s := New(b, Config{})
	defer s.Close()
	if err := write(s, 3, payload(3)); err != nil {
		t.Fatal(err)
	}
	// Both submissions queue behind a barrier, so one batch serves them.
	held, gate := make(chan struct{}), make(chan struct{})
	go s.Sync(func() { close(held); <-gate })
	<-held
	var readsSeen [2]uint64
	err := s.SubmitBatchFunc([]Req{{Op: OpRead, ID: 3}, {Op: OpRead, ID: 4}}, func(i int, data []byte, err error) {
		readsSeen[i] = snapshot(s).Reads
		data[0] ^= 0xFF
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := submit(s, Req{Op: OpRead, ID: 3})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	got, err := p.wait(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(3)) {
		t.Fatal("a deduplicated read saw the first caller's scribble")
	}
	if readsSeen != [2]uint64{2, 2} {
		t.Fatalf("completions saw %v reads in the stats, want the whole submission (2) each", readsSeen)
	}
	if st := snapshot(s); st.DedupHits != 1 || st.Reads != 3 {
		t.Fatalf("dedup hits %d, reads %d; want 1 and 3", st.DedupHits, st.Reads)
	}
}

// staticBackend serves one shared block and allocates nothing, so an
// allocation count over it is the service layer's own.
type staticBackend struct{ block []byte }

func (b staticBackend) Read(uint64) ([]byte, error) { return b.block, nil }
func (b staticBackend) Write(uint64, []byte) error  { return nil }
func (b staticBackend) Close() error                { return nil }

func (b staticBackend) WriteMany([]uint64, [][]byte, []error) {}

// TestSubmitBatchAllocs guards the inline path's allocation budget: a
// submission of 16 distinct reads costs submitter and worker together one
// allocation, the request slab — no request per op, no dedup-cache copy
// for an id that does not recur.
func TestSubmitBatchAllocs(t *testing.T) {
	s := New(staticBackend{make([]byte, 64)}, Config{})
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
		if err := s.SubmitBatchFunc(reqs, done); err != nil {
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
	s := New(b, Config{})
	defer s.Close()
	// In one atomic batch: write id 3, then read it twice. Reads must see
	// the write (arrival order) and be served from the batch cache.
	p, err := submit(s,
		Req{Op: OpWrite, ID: 3, Data: payload(99)},
		Req{Op: OpRead, ID: 3},
		Req{Op: OpRead, ID: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.wait(0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(p); i++ {
		data, err := p.wait(i)
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(data) != 99 {
			t.Fatal("read did not observe same-batch write")
		}
	}
	var accesses int
	if err := s.Sync(func() { accesses = b.accesses }); err != nil {
		t.Fatal(err)
	}
	if accesses != 1 {
		t.Fatalf("write+2 reads cost %d backend accesses, want 1 (reads fan out from the write)", accesses)
	}
}

func TestServeFailedWriteNotCached(t *testing.T) {
	b := newMemBackend()
	b.hasFail, b.failOn = true, 4
	s := New(b, Config{})
	defer s.Close()
	p, err := submit(s,
		Req{Op: OpWrite, ID: 4, Data: payload(1)},
		Req{Op: OpRead, ID: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.wait(0); err == nil {
		t.Fatal("injected write failure not reported")
	}
	// The read must hit the backend (and fail itself), never a stale cache.
	if _, err := p.wait(1); err == nil {
		t.Fatal("read after failed write served from cache")
	}
}

// TestServeWriteRuns: each run of consecutive writes in a submission
// reaches the backend as one WriteMany (a lone write as a Write), reads
// split the runs, and no write of the submission is completed before its
// run returned from the backend.
func TestServeWriteRuns(t *testing.T) {
	b := newMemBackend()
	s := New(b, Config{})
	defer s.Close()
	ops := []Op{OpWrite, OpWrite, OpWrite, OpRead, OpWrite, OpWrite, OpRead, OpWrite}
	reqs := make([]Req, len(ops))
	for i, op := range ops {
		reqs[i] = Req{Op: op, ID: uint64(i % 3), Data: payload(uint64(100 + i))}
	}
	var completed, early atomic.Int32
	served := make(chan struct{})
	err := s.SubmitBatchFunc(reqs, func(i int, data []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		if len(b.vectors) != 2 || b.accesses != 6 {
			early.Add(1) // a completion ran before the submission's last write
		}
		// Both reads name id 0, which op 0 wrote: they fan out from the
		// worker's copy of that write and cost no backend access.
		if ops[i] == OpRead && binary.LittleEndian.Uint64(data) != 100 {
			t.Errorf("op %d read %d, want 100", i, binary.LittleEndian.Uint64(data))
		}
		if completed.Add(1) == int32(len(ops)) {
			close(served)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-served
	if n := early.Load(); n != 0 {
		t.Fatalf("%d completions ran before every write run had returned", n)
	}
	if !reflect.DeepEqual(b.vectors, []int{3, 2}) {
		t.Fatalf("WriteMany calls of %v writes, want [3 2] (the lone trailing write is a Write)", b.vectors)
	}
	for id, want := range map[uint64]uint64{0: 100, 1: 107, 2: 105} {
		data, err := read(s, id)
		if err != nil || binary.LittleEndian.Uint64(data) != want {
			t.Fatalf("id %d = %d, %v; want %d", id, binary.LittleEndian.Uint64(data), err, want)
		}
	}
}

// TestServeWriteRunFailure: a write the vector reports failed resolves with
// that error and is not cached; its neighbours in the run are unaffected.
func TestServeWriteRunFailure(t *testing.T) {
	b := newMemBackend()
	b.hasFail, b.failOn = true, 4
	s := New(b, Config{})
	defer s.Close()
	p, err := submit(s,
		Req{Op: OpWrite, ID: 4, Data: payload(1)},
		Req{Op: OpWrite, ID: 5, Data: payload(2)},
		Req{Op: OpRead, ID: 4},
		Req{Op: OpRead, ID: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.wait(0); err == nil {
		t.Fatal("injected write failure not reported")
	}
	if _, err := p.wait(1); err != nil {
		t.Fatalf("write beside the failed one: %v", err)
	}
	if _, err := p.wait(2); err == nil {
		t.Fatal("read after failed write served from cache")
	}
	if data, err := p.wait(3); err != nil || binary.LittleEndian.Uint64(data) != 2 {
		t.Fatalf("read of the successful write = %v, %v", data, err)
	}
}

func TestServeSyncOrdering(t *testing.T) {
	b := newMemBackend()
	s := New(b, Config{QueueDepth: 64})
	defer s.Close()
	// Sync observes every operation queued ahead of it.
	var subs []pending
	for i := 0; i < 20; i++ {
		p, err := submit(s, Req{Op: OpWrite, ID: uint64(i), Data: payload(uint64(i))})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, p)
	}
	var n int
	if err := s.Sync(func() { n = len(b.blocks) }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("Sync ran before queued writes: saw %d blocks", n)
	}
	for _, p := range subs {
		if _, err := p.wait(0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServeCloseDrainsAndRejects(t *testing.T) {
	b := newMemBackend()
	s := New(b, Config{QueueDepth: 128})
	var subs []pending
	for i := 0; i < 50; i++ {
		p, err := submit(s, Req{Op: OpWrite, ID: uint64(i), Data: payload(uint64(i))})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, p)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything queued before Close completed.
	for _, p := range subs {
		if _, err := p.wait(0); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.blocks) != 50 {
		t.Fatalf("close dropped writes: %d/50 applied", len(b.blocks))
	}
	if _, err := submit(s, Req{Op: OpRead}); err == nil {
		t.Fatal("submit after close must error")
	}
	if err := s.Sync(func() {}); err == nil {
		t.Fatal("sync after close must error")
	}
	if err := s.Close(); err != nil {
		t.Fatal("close must be idempotent")
	}
	if b.closes != 1 {
		t.Fatalf("backend closed %d times, want exactly once", b.closes)
	}
}

func TestServeErrClosedSentinel(t *testing.T) {
	s := New(newMemBackend(), Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	never := func(int, []byte, error) { t.Error("a refused submission's completion ran") }
	if err := s.SubmitFunc(OpRead, 0, nil, never); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitFunc after Close = %v, want errors.Is(_, ErrClosed)", err)
	}
	if err := s.SubmitBatchFunc([]Req{{Op: OpRead, ID: 0}}, never); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatchFunc after Close = %v, want errors.Is(_, ErrClosed)", err)
	}
}

func TestServeClosePropagatesBackendError(t *testing.T) {
	b := newMemBackend()
	b.closeErr = fmt.Errorf("disk full")
	s := New(b, Config{})
	if err := s.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close = %v, want the backend's close error", err)
	}
	// Repeated Close keeps returning the same error (idempotent outcome),
	// without re-closing the backend.
	if err := s.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("second Close = %v, want the same error", err)
	}
	if b.closes != 1 {
		t.Fatalf("backend closed %d times, want exactly once", b.closes)
	}
}

func TestServeConcurrentClients(t *testing.T) {
	// Many clients over two shards' Services with tiny queues, exercising
	// back-pressure and the race detector across the full submit path.
	svcs := []*Service{New(newMemBackend(), Config{QueueDepth: 4}), New(newMemBackend(), Config{QueueDepth: 4})}
	for _, s := range svcs {
		defer s.Close()
	}
	const clients, opsPer = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := svcs[c%2]
			for i := 0; i < opsPer; i++ {
				// Each client owns a disjoint id range so reads verify
				// exactly against the client's own writes.
				id := uint64(c*opsPer + i%7)
				want := uint64(c<<32) | uint64(i)
				if err := write(s, id, payload(want)); err != nil {
					errs <- err
					return
				}
				got, err := read(s, id)
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
	st := MergeStats(svcs)
	if st.Reads != clients*opsPer || st.Writes != clients*opsPer {
		t.Fatalf("stats ops: %+v", st)
	}
	if st.ReadLat.N != clients*opsPer || st.ReadLat.P99Us < st.ReadLat.P50Us {
		t.Fatalf("latency summary implausible: %+v", st.ReadLat)
	}
}

// TestServeStatsBreakdown: the queue-wait/execute split covers every
// completed op and stays internally consistent.
func TestServeStatsBreakdown(t *testing.T) {
	b := newMemBackend()
	s := New(b, Config{})
	defer s.Close()
	for i := 0; i < 40; i++ {
		if err := write(s, uint64(i), payload(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := snapshot(s)
	if st.QueueLat.N != 40 || st.ExecLat.N != 40 {
		t.Fatalf("breakdown N = %d/%d, want 40/40", st.QueueLat.N, st.ExecLat.N)
	}
	if st.QueueLat.P99Us < st.QueueLat.P50Us || st.ExecLat.P99Us < st.ExecLat.P50Us {
		t.Fatalf("implausible breakdown summaries: %+v %+v", st.QueueLat, st.ExecLat)
	}
}

// TestMergeSubExact: Merge pools two snapshots as if one service had
// served both sample sets, Sub takes one back out, and a snapshot rebuilt
// from its wire form (Hists, FromHists) is the snapshot itself.
func TestMergeSubExact(t *testing.T) {
	fill := func(us ...float64) Stats {
		h := newLatHists()
		for i, x := range h {
			for _, v := range us {
				x.Add(v * float64(i+1))
			}
		}
		return h.stats(uint64(len(us)), 2*uint64(len(us)))
	}
	a, b := fill(10, 10, 10), fill(100, 100, 100000)
	both := fill(10, 10, 10, 100, 100, 100000)
	if got := Merge(a, b); !reflect.DeepEqual(got, both) {
		t.Fatalf("Merge:\n got %+v\nwant %+v", got, both)
	}
	if got := Sub(both, a); !reflect.DeepEqual(got, b) {
		t.Fatalf("Sub:\n got %+v\nwant %+v", got, b)
	}
	if got := FromHists(b.DedupHits, b.Sheds, Hists(b)); !reflect.DeepEqual(got, b) {
		t.Fatalf("FromHists(Hists):\n got %+v\nwant %+v", got, b)
	}
	// The pooled p50 is a latency some op had, not a blend of the two.
	if m := Merge(fill(10), fill(100)); m.ReadLat.P50Us != 15 || m.ReadLat.P99Us != 105 {
		t.Fatalf("pooled read p50/p99 = %v/%v, want 15/105", m.ReadLat.P50Us, m.ReadLat.P99Us)
	}
}

// TestServeAdmissionDeadlineSheds: a deadline no queued request can meet
// drops every op at worker pickup — ErrRetry to the waiter, counted in
// Stats.Sheds, excluded from the completed-op counters and latency
// histograms, and (the §6-relevant property) the backend is never
// touched: a shed is invisible in the adversary's access view.
func TestServeAdmissionDeadlineSheds(t *testing.T) {
	b := newMemBackend()
	s := New(b, Config{AdmissionDeadline: 1}) // 1ns
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := write(s, uint64(i), payload(uint64(i))); !errors.Is(err, ErrRetry) {
			t.Fatalf("write %d under 1ns deadline = %v, want ErrRetry", i, err)
		}
		if _, err := read(s, uint64(i)); !errors.Is(err, ErrRetry) {
			t.Fatalf("read %d under 1ns deadline = %v, want ErrRetry", i, err)
		}
	}
	st := snapshot(s)
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
	s := New(b, Config{})
	defer s.Close()
	for i := 0; i < 32; i++ {
		if err := write(s, uint64(i), payload(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := snapshot(s); st.Sheds != 0 || st.Writes != 32 {
		t.Fatalf("deadline-free service shed: %+v", st)
	}
}

// TestCompletionExactlyOnce pins the completion contract: every operation
// of an accepted submission has its completion run exactly once — through
// normal completion, a backend error, dedup fan-out, an admission shed and
// Close's drain — and a submission that was refused never runs it.
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
		{name: "serial", backend: failingMem()},
		{name: "shedding", backend: failingMem(), cfg: Config{AdmissionDeadline: 1}, shed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.backend, tc.cfg)
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
						err := s.SubmitFunc(op, uint64(k%16), payload(uint64(k)), func(i int, _ []byte, err error) {
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
						err := s.SubmitBatchFunc(reqs, func(i int, _ []byte, err error) {
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
			if err := s.SubmitFunc(OpRead, 1, nil, never); !errors.Is(err, ErrClosed) {
				t.Fatalf("submit after Close = %v, want ErrClosed", err)
			}
			if err := s.SubmitBatchFunc([]Req{{Op: OpRead, ID: 1}, {Op: Op(99)}}, never); err == nil {
				t.Fatal("a batch with an invalid op must be refused")
			}
			if n := late.Load(); n != 0 {
				t.Fatalf("%d completions ran for refused submissions", n)
			}
		})
	}
}
