// Package serve is the concurrent request layer over a set of sharded
// oblivious-store backends: per-shard worker goroutines, bounded request
// queues with back-pressure, intra-batch same-block read deduplication
// (one ORAM access fans out to every waiter), completion callbacks, and
// latency histograms (internal/stats).
//
// Concurrency discipline: each backend is confined to exactly one worker
// goroutine — the engine-per-goroutine rule the sweep runner already
// follows (DESIGN.md §4.2) — so ORAM engines need no locks and per-shard
// request subsequences execute deterministically. Clients only touch
// channels and their own completions. Back-pressure is the queue send
// itself: when a shard's bounded queue is full, a submit blocks until the
// worker drains, which bounds memory and keeps a closed-loop client honest.
//
// A request's outcome is delivered through exactly one primitive, its
// Completion, run on the shard worker. SubmitFunc and SubmitBatchFunc hand
// the caller's completion to the worker directly (the network layer's
// path: no goroutine waits per request); Submit, SubmitBatch and
// Future.Wait are the same path with a completion that sends on the
// future's channel.
//
// A worker runs every submission to completion: each op executes on the
// worker, then the submission's latencies are recorded under one clock
// read and its completions run — the stores' default over the memory and
// wal engines, whose calls cannot block (DESIGN.md §9).
//
// With a StagedBackend and PipelineDepth > 1 the worker instead becomes a
// depth-D software pipeline (DESIGN.md §9): request k's backend I/O and
// WAL commit are in flight while request k+1's engine stage runs on the
// worker. Engine work never leaves the worker goroutine and completions
// resolve FIFO, so scheduling, dedup semantics, and per-shard
// determinism are identical to the run-to-completion worker at every depth.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"palermo/internal/stats"
)

// ErrClosed is returned by every operation submitted after Close has
// begun. The public API re-exports it as palermo.ErrClosed, so callers
// test for it with errors.Is instead of matching the message string.
var ErrClosed = errors.New("serve: service is closed")

// ErrRetry is returned by an operation the service shed under overload:
// its admission deadline (Config.AdmissionDeadline) expired while it sat
// in the shard queue, so the worker dropped it *before any engine access*
// instead of letting the queue grow without bound. The operation did not
// execute — retrying is always safe — and because the drop happens ahead
// of the backend, shedding is invisible to the §6 obliviousness argument.
// The public API re-exports it as palermo.ErrRetry.
var ErrRetry = errors.New("serve: request shed under overload, retry")

// Op selects a request kind.
type Op uint8

// Request kinds.
const (
	OpRead Op = iota + 1
	OpWrite
	opSync // run a closure on the worker goroutine (stats snapshots, tests)
)

// Req describes one operation of a batch submission. Data is required for
// OpWrite and must be exactly the backend's block size.
type Req struct {
	Op   Op
	ID   uint64 // shard-local block id
	Data []byte
}

// Backend is one shard's store, owned by its worker goroutine. Close is
// called by the worker itself after its queue has drained, so a durable
// backend flushes and checkpoints on the same goroutine that owns it.
type Backend interface {
	Read(local uint64) ([]byte, error)
	Write(local uint64, data []byte) error
	Close() error
}

// Access is one staged operation a StagedBackend has begun: the engine
// stage is done, the I/O stage is in flight. Wait resolves it (on the
// worker goroutine).
type Access interface {
	Wait() ([]byte, error)
}

// StagedBackend is the optional Backend extension the pipelined worker
// drives: Begin runs the access's deterministic engine stage and launches
// its backend I/O vector, so the worker can begin the next request's
// engine stage while up to PipelineDepth accesses' I/O (and a durable
// backend's group commit) is in flight. shard.Shard implements it once
// its pipeline is enabled.
type StagedBackend interface {
	Backend
	BeginRead(local uint64) (Access, error)
	BeginWrite(local uint64, data []byte) (Access, error)
}

// PrefetchBackend is the optional StagedBackend extension the batch-
// admission planner drives: PrefetchRead announces an upcoming read so the
// backend can move its payload fetch ahead of the access's engine stage
// (declining — returning false — is always safe). The worker announces
// only distinct ids whose first operation in the admitted batch is a read,
// which is exactly the set its dedup discipline turns into one BeginRead
// each — so every accepted announcement is claimed by the batch it planned.
type PrefetchBackend interface {
	PrefetchRead(local uint64) bool
}

// DeepPrefetchBackend is the multi-line extension the deep planner
// (Config.PrefetchDepth > 1 or Config.PosmapPrefetch) drives. PrefetchSet
// announces a whole fetch set in one vectored request and reports how many
// leading lines were accepted; DropPrefetch releases an accepted announce
// whose read will never materialize (an overload shed, an expired
// speculative line) so announce window slots cannot leak; PosmapGroup
// names the announced id's position-map-group siblings — the contiguous
// data lines its level-1 posmap line covers — for speculative warming.
// shard.Shard implements it.
type DeepPrefetchBackend interface {
	PrefetchBackend
	PrefetchSet(locals []uint64) int
	DropPrefetch(local uint64) bool
	PosmapGroup(local uint64, dst []uint64) []uint64
}

// Config tunes the service. The zero value uses the defaults.
type Config struct {
	// QueueDepth bounds each shard's request queue, counted in queued
	// submissions (a batch counts once). Default 256.
	QueueDepth int
	// MaxBatch caps how many operations a worker coalesces into one
	// served batch when draining its queue opportunistically. A single
	// submitted batch is never split, so an atomic SubmitBatch larger than
	// MaxBatch still dedups as one unit. Default 64.
	MaxBatch int
	// PipelineDepth is how many accesses a shard worker keeps in flight
	// through a StagedBackend: request k's backend I/O and WAL commit
	// overlap request k+1's engine stage. 1 serves strictly serially —
	// bit-identical to the pre-pipeline worker; backends that are not
	// StagedBackends always serve serially. Default 2.
	PipelineDepth int
	// Prefetch turns on the batch-admission planner: when a backend is a
	// PrefetchBackend (and the pipeline is active), each admitted batch's
	// upcoming reads are announced up front so their payload fetches run
	// ahead of the accesses' engine stages. Purely a scheduling change —
	// served payloads, dedup semantics, and per-shard determinism are
	// untouched (the differential suite pins this). Default off.
	Prefetch bool
	// PrefetchDepth is how many predicted served batches ahead the
	// admission planner announces read fetch sets, counted in batches of
	// MaxBatch operations: the worker pulls queued submissions into a
	// backlog, predicts the batch boundaries its own coalescing rule will
	// produce (submitted batches are never split and batches only grow at
	// the tail, so predictions never invalidate), and announces each
	// predicted batch's first-op-read ids before the current batch
	// finishes executing. 0 or 1 keeps today's one-batch planner
	// bit-exactly. Only meaningful with Prefetch and a
	// DeepPrefetchBackend. Default 1.
	PrefetchDepth int
	// PosmapPrefetch additionally announces each planned read's
	// position-map-group siblings (DeepPrefetchBackend.PosmapGroup): the
	// contiguous data lines the access's level-1 posmap line covers, so
	// one announce warms the whole recursive hierarchy's backend lines.
	// Speculative lines nobody reads are dropped after the planning
	// horizon passes. Requires Prefetch. Default off.
	PosmapPrefetch bool
	// AdmissionDeadline bounds how long a request may wait in its shard
	// queue before the worker sheds it: a request picked up more than this
	// long after submission is answered ErrRetry without executing, so an
	// overloaded service degrades by shedding instead of by unbounded
	// queueing delay. Sheds happen strictly before any engine or backend
	// access. 0 (the default) disables shedding — every queued request
	// executes, the pre-overload behavior.
	AdmissionDeadline time.Duration
}

// DefaultMaxBatch is Config.MaxBatch's default, exported because the
// store sizes each shard's prefetch announce window from it.
const DefaultMaxBatch = 64

func (c *Config) defaults() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 2
	}
}

// Completion receives one request's outcome: i is the request's index in
// its submission (0 for a single operation), data the payload of a
// successful read. It runs on the shard's worker goroutine, so it must not
// block — everything queued behind the request waits for it. It is called
// exactly once for every request of a submission that was accepted, and
// never for a submission that returned an error.
type Completion func(i int, data []byte, err error)

// result is what a future resolves to.
type result struct {
	data []byte
	err  error
}

// Future resolves to one request's outcome.
type Future struct {
	done chan result
}

func newFuture() *Future { return &Future{done: make(chan result, 1)} }

// Wait blocks until the request completes and returns its payload (reads)
// and error.
func (f *Future) Wait() ([]byte, error) {
	r := <-f.done
	return r.data, r.err
}

// submission is the internal queued form: one Submit* call's operations in
// one slab, with what they share — the submit time and the completion.
type submission struct {
	t0   time.Time // submission (queue entry)
	done Completion
	fn   func() // Sync only (reqs is then one opSync request)
	reqs []request
}

// request is one operation of a submission. dup and recur are the served
// batch's dedup marks (worker.mark): only an id that recurs is worth a
// cache entry, only a repeat is worth a lookup.
type request struct {
	op    Op
	dup   bool   // an earlier op of the served batch names this id
	recur bool   // a later one does
	id    uint64 // shard-local block id
	data  []byte // write payload; a read's result until its submission resolves
	err   error
}

// Service routes requests to per-shard workers.
type Service struct {
	cfg     Config
	workers []*worker

	mu       sync.RWMutex // guards closed vs. in-flight queue sends
	closed   bool
	wg       sync.WaitGroup
	errOnce  sync.Once // collects worker close errors exactly once
	closeErr error
}

// worker owns one backend.
type worker struct {
	backend  Backend
	staged   StagedBackend // non-nil: the pipelined executor is active
	depth    int           // accesses kept in flight (PipelineDepth)
	queue    chan submission
	maxBatch int
	deadline time.Duration // admission deadline (0 = no shedding)

	// Pipeline state (staged executor only). pipe is the in-flight FIFO;
	// inflight counts per-id in-flight accesses begun in the current
	// coalesced batch, so same-batch dedup still collapses duplicate reads
	// onto one ORAM access; batchSeq tags pipe entries with their batch so
	// a completion from a previous batch never pollutes the current
	// batch's dedup cache.
	pipe     []pendingOp
	inflight map[uint64]int
	batchSeq uint64

	// lastOp is mark's scratch, empty between batches: the latest op per id.
	lastOp map[uint64]*request

	// Prefetch planner state (Config.Prefetch with a PrefetchBackend).
	// pfSeen is the per-batch first-op scratch set.
	prefetcher PrefetchBackend
	pfSeen     map[uint64]bool
	planned    uint64 // announcements the backend accepted (under statMu)

	// Claim/drop accounting (a DeepPrefetchBackend). ann is the current
	// batch's accepted-but-unclaimed announce set: a BeginRead of the id
	// claims it, and whatever remains at batch end — a shed read, a failed
	// Begin — is released with DropPrefetch so announce window slots never
	// leak.
	dropper interface{ DropPrefetch(local uint64) bool }
	ann     map[uint64]bool

	// Deep planner state (PrefetchDepth > 1 or PosmapPrefetch). backlog
	// holds queued submissions chunked into the exact batches the
	// coalescing rule will serve; annOut tracks every id with an
	// outstanding announce across all predicted batches (one claim each);
	// spec is the FIFO of speculative posmap-group lines with their expiry
	// batch; serveSeq counts served batches for that expiry.
	deep      DeepPrefetchBackend
	deepDepth int
	posmap    bool
	backlog   []*predBatch
	qClosed   bool
	annOut    map[uint64]bool
	spec      []specLine
	serveSeq  uint64
	annBuf    []uint64 // announce-set scratch, issue order
	annDemand []bool   // parallel to annBuf: demand line (vs speculative sibling)
	groupBuf  []uint64 // PosmapGroup scratch

	// statMu guards the histograms and counters below; they are written by
	// the worker once per completed request and read by Stats.
	statMu   sync.Mutex
	readLat  *stats.Histogram
	writeLat *stats.Histogram
	queueLat *stats.Histogram // submission -> worker pickup
	execLat  *stats.Histogram // worker pickup -> completion
	dedup    uint64
	sheds    uint64 // requests dropped at pickup (admission deadline expired)

	// closeErr is the backend's Close result, written by the worker
	// goroutine before it exits and read only after wg.Wait.
	closeErr error
}

// pendingOp is one operation on the staged executor: what finish needs of
// its submission, and the in-flight access awaiting completion.
type pendingOp struct {
	r     *request
	i     int // index in its submission, handed back to done
	t0    time.Time
	tExec time.Time // worker pickup (queue exit)
	done  Completion
	acc   Access
	seq   uint64 // batch tag (dedup-cache eligibility)
}

// predBatch is one predicted served batch of the deep planner's backlog:
// the submission groups the coalescing rule will serve as one batch, plus
// the announce set accepted on its behalf. Groups only ever append while
// nops < maxBatch — the same greedy rule the legacy coalescing loop
// applies — so a predicted batch's boundary never moves once the next
// batch starts.
type predBatch struct {
	subs []submission
	nops int
	ann  map[uint64]bool // accepted announces to claim (BeginRead) or drop
}

// specLine is one speculative posmap-group announce: dropped (if still
// unclaimed) once serveSeq passes expire, the planning horizon after its
// announcing batch.
type specLine struct {
	id     uint64
	expire uint64
}

// New starts one worker goroutine per backend.
func New(backends []Backend, cfg Config) *Service {
	cfg.defaults()
	s := &Service{cfg: cfg}
	for _, b := range backends {
		w := &worker{
			backend:  b,
			depth:    cfg.PipelineDepth,
			queue:    make(chan submission, cfg.QueueDepth),
			lastOp:   make(map[uint64]*request),
			maxBatch: cfg.MaxBatch,
			deadline: cfg.AdmissionDeadline,
			readLat:  newLatHistogram(),
			writeLat: newLatHistogram(),
			queueLat: newLatHistogram(),
			execLat:  newLatHistogram(),
		}
		if sb, ok := b.(StagedBackend); ok && cfg.PipelineDepth > 1 {
			w.staged = sb
			w.inflight = make(map[uint64]int)
			if pb, ok := b.(PrefetchBackend); ok && cfg.Prefetch {
				w.prefetcher = pb
				w.pfSeen = make(map[uint64]bool)
				if dp, ok := b.(DeepPrefetchBackend); ok {
					// Claim/drop accounting needs DropPrefetch; backends
					// without it keep the legacy fire-and-forget planner.
					w.dropper = dp
					w.ann = make(map[uint64]bool)
					if cfg.PrefetchDepth > 1 || cfg.PosmapPrefetch {
						w.deep = dp
						w.deepDepth = max(cfg.PrefetchDepth, 1)
						w.posmap = cfg.PosmapPrefetch
						w.annOut = make(map[uint64]bool)
					}
				}
			}
		}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.run()
		}()
	}
	return s
}

// newLatHistogram builds a latency histogram in microseconds: 4096
// buckets of 5µs cover [0, ~20ms) with overflow counted. Percentiles come
// from bucket counts (stats.Histogram.Quantile), so service memory stays
// bounded no matter how many requests are served.
func newLatHistogram() *stats.Histogram {
	return stats.NewHistogram(4096, 5)
}

// Shards returns the number of shard workers.
func (s *Service) Shards() int { return len(s.workers) }

// SubmitFunc enqueues one operation for a shard; done receives its outcome
// on the worker (see Completion). It blocks while the shard's queue is full
// (back-pressure). Write data is copied, so the caller may reuse its buffer
// as soon as SubmitFunc returns.
func (s *Service) SubmitFunc(shard int, op Op, id uint64, data []byte, done Completion) error {
	return s.SubmitBatchFunc(shard, []Req{{Op: op, ID: id, Data: data}}, done)
}

// SubmitBatchFunc enqueues a batch atomically: the worker serves all of it
// as one unit, so same-block reads inside the batch are guaranteed to
// coalesce into a single ORAM access. done runs once per request, with the
// request's index in reqs.
func (s *Service) SubmitBatchFunc(shard int, reqs []Req, done Completion) error {
	if len(reqs) == 0 {
		return nil
	}
	sub := submission{t0: time.Now(), done: done, reqs: make([]request, len(reqs))}
	for i, q := range reqs {
		if q.Op != OpRead && q.Op != OpWrite {
			return fmt.Errorf("serve: invalid op %d at batch index %d", q.Op, i)
		}
		sub.reqs[i] = request{op: q.Op, id: q.ID}
		if q.Op == OpWrite {
			sub.reqs[i].data = append([]byte(nil), q.Data...)
		}
	}
	return s.enqueue(shard, sub)
}

// Submit is SubmitFunc with a future for a completion.
func (s *Service) Submit(shard int, op Op, id uint64, data []byte) (*Future, error) {
	f := newFuture()
	err := s.SubmitFunc(shard, op, id, data, func(_ int, data []byte, err error) {
		f.done <- result{data, err} // buffered: never blocks the worker
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// SubmitBatch is SubmitBatchFunc with one future per request, in input
// order.
func (s *Service) SubmitBatch(shard int, reqs []Req) ([]*Future, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	futs := make([]*Future, len(reqs))
	for i := range futs {
		futs[i] = newFuture()
	}
	err := s.SubmitBatchFunc(shard, reqs, func(i int, data []byte, err error) {
		futs[i].done <- result{data, err}
	})
	if err != nil {
		return nil, err
	}
	return futs, nil
}

// Read performs a synchronous oblivious read on a shard.
func (s *Service) Read(shard int, id uint64) ([]byte, error) {
	f, err := s.Submit(shard, OpRead, id, nil)
	if err != nil {
		return nil, err
	}
	return f.Wait()
}

// Write performs a synchronous oblivious write on a shard.
func (s *Service) Write(shard int, id uint64, data []byte) error {
	f, err := s.Submit(shard, OpWrite, id, data)
	if err != nil {
		return err
	}
	_, err = f.Wait()
	return err
}

// Sync runs fn on the shard's worker goroutine, after every operation
// queued ahead of it, and returns once fn completes. It is the race-free
// way to observe worker-owned state (backend counters, traces) while the
// service is running.
func (s *Service) Sync(shard int, fn func()) error {
	ran := make(chan struct{})
	sub := submission{t0: time.Now(), fn: fn, done: func(int, []byte, error) { close(ran) }, reqs: []request{{op: opSync}}}
	if err := s.enqueue(shard, sub); err != nil {
		return err
	}
	<-ran
	return nil
}

// enqueue sends a submission to a shard's queue under the closed-state guard.
// Holding the read lock across a blocking send is safe: workers drain until
// their queue is closed, and Close cannot close queues until all in-flight
// sends release the lock.
func (s *Service) enqueue(shard int, sub submission) error {
	if shard < 0 || shard >= len(s.workers) {
		return fmt.Errorf("serve: shard %d out of range [0,%d)", shard, len(s.workers))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.workers[shard].queue <- sub
	return nil
}

// Close stops accepting requests, drains every already-queued request to
// completion, closes each backend on its own worker goroutine (flushing
// and checkpointing durable backends), and waits for all workers to exit.
// Idempotent; every call returns the first backend close error.
func (s *Service) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, w := range s.workers {
			close(w.queue)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.errOnce.Do(func() {
		for _, w := range s.workers {
			if w.closeErr != nil {
				s.closeErr = w.closeErr
				break
			}
		}
	})
	return s.closeErr
}

// Closed reports whether Close has begun.
func (s *Service) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// WaitClosed blocks until every worker goroutine has exited. Only
// meaningful once Close has begun (a concurrent Close may still be
// draining queued requests when other callers observe closed errors);
// calling it on an open service blocks until someone calls Close.
func (s *Service) WaitClosed() { s.wg.Wait() }

// run is the worker loop: receive a batch, opportunistically coalesce more
// queued submissions up to maxBatch operations, serve, repeat. With a
// staged backend, in-flight accesses are carried across batches while the
// queue stays busy — the cross-request overlap of the pipeline — and
// drained whenever the queue goes idle, so a lone request never waits for
// a successor. On queue close, everything already queued is still served
// and the pipeline drained before the backend closes.
func (w *worker) run() {
	cache := make(map[uint64][]byte)
	defer func() {
		w.drainPipe(cache)
		w.closeErr = w.backend.Close()
	}()
	if w.deep != nil {
		w.runDeep(cache)
		return
	}
	var batch []submission // scratch, reused across served batches
	for {
		sub, ok := w.next(cache)
		if !ok {
			return
		}
		batch = append(batch[:0], sub)
	coalesce:
		for nops := len(sub.reqs); nops < w.maxBatch; nops += len(sub.reqs) {
			select {
			case sub, ok = <-w.queue:
				if !ok {
					break coalesce // closed: serve what was queued, then exit
				}
				batch = append(batch, sub)
			default:
				break coalesce
			}
		}
		w.serve(batch, cache)
		clear(batch) // an idle worker pins no caller's slab
	}
}

// next blocks for the next queued submission, completing in-flight staged
// work first rather than parking on an empty queue with it outstanding.
func (w *worker) next(cache map[uint64][]byte) (submission, bool) {
	if len(w.pipe) > 0 {
		select {
		case sub, ok := <-w.queue:
			return sub, ok
		default:
			w.drainPipe(cache)
		}
	}
	sub, ok := <-w.queue
	return sub, ok
}

// runDeep is the worker loop of the deep planner (PrefetchDepth > 1 or
// PosmapPrefetch): queued submissions are pulled into a backlog chunked by
// the exact coalescing rule the legacy loop applies, fetch sets are
// announced for up to deepDepth predicted batches ahead, and then the
// front batch is served — so batch k+1's (and its posmap groups') backend
// lines are already moving while batch k's engine stages run. Served
// batches, dedup semantics, and engine-stage order are identical to the
// legacy loop; only announce timing differs.
func (w *worker) runDeep(cache map[uint64][]byte) {
	for {
		if len(w.backlog) == 0 {
			sub, ok := w.next(cache)
			if !ok {
				return
			}
			w.push(sub)
		}
		w.fill()
		for i, pb := range w.backlog {
			if i >= w.deepDepth {
				break
			}
			w.announceBatch(pb)
		}
		pb := w.backlog[0]
		w.backlog = w.backlog[1:]
		w.ann = pb.ann
		w.serve(pb.subs, cache)
		if w.qClosed && len(w.backlog) == 0 {
			return
		}
	}
}

// push appends one submission to the backlog under the coalescing rule: it
// joins the last predicted batch while that batch holds fewer than maxBatch
// operations (a submission is never split), otherwise it starts the next
// one.
func (w *worker) push(sub submission) {
	if n := len(w.backlog); n > 0 && w.backlog[n-1].nops < w.maxBatch {
		pb := w.backlog[n-1]
		pb.subs = append(pb.subs, sub)
		pb.nops += len(sub.reqs)
		return
	}
	w.backlog = append(w.backlog, &predBatch{
		subs: []submission{sub},
		nops: len(sub.reqs),
		ann:  make(map[uint64]bool),
	})
}

// fill pulls queued submissions without blocking until the backlog covers
// deepDepth full predicted batches (or the queue is empty/closed), giving
// the announce pass its look-ahead.
func (w *worker) fill() {
	for !w.qClosed {
		if n := len(w.backlog); n > w.deepDepth ||
			(n == w.deepDepth && w.backlog[n-1].nops >= w.maxBatch) {
			return
		}
		select {
		case group, ok := <-w.queue:
			if !ok {
				w.qClosed = true
				return
			}
			w.push(group)
		default:
			return
		}
	}
}

// announceBatch announces one predicted batch's fetch set: each distinct
// id whose first operation in the batch is a read (the legacy plan rule),
// plus — with PosmapPrefetch — its position-map-group siblings as
// speculative lines. Ids with an announce already outstanding anywhere in
// the horizon are skipped (one claim each), so re-running the pass after
// the batch grows announces only the new ids. The whole set goes to the
// backend as one vectored PrefetchSet; the accepted prefix is recorded
// for claim/drop accounting — demand lines on the batch, speculative ones
// on the expiry FIFO.
func (w *worker) announceBatch(pb *predBatch) {
	clear(w.pfSeen)
	w.annBuf, w.annDemand = w.annBuf[:0], w.annDemand[:0]
	for _, sub := range pb.subs {
		for i := range sub.reqs {
			r := &sub.reqs[i]
			if r.op != OpRead && r.op != OpWrite {
				continue
			}
			if w.pfSeen[r.id] {
				continue
			}
			w.pfSeen[r.id] = true
			if r.op != OpRead {
				continue
			}
			if !w.annOut[r.id] {
				w.annOut[r.id] = true
				w.annBuf = append(w.annBuf, r.id)
				w.annDemand = append(w.annDemand, true)
			}
			if w.posmap {
				w.groupBuf = w.deep.PosmapGroup(r.id, w.groupBuf[:0])
				for _, sib := range w.groupBuf {
					if sib == r.id || w.annOut[sib] {
						continue
					}
					w.annOut[sib] = true
					w.annBuf = append(w.annBuf, sib)
					w.annDemand = append(w.annDemand, false)
				}
			}
		}
	}
	if len(w.annBuf) == 0 {
		return
	}
	n := w.deep.PrefetchSet(w.annBuf)
	for i, id := range w.annBuf {
		if i >= n {
			delete(w.annOut, id) // declined (window full): free for a retry
			continue
		}
		if w.annDemand[i] {
			pb.ann[id] = true
		} else {
			w.spec = append(w.spec, specLine{id: id, expire: w.serveSeq + uint64(w.deepDepth)})
		}
	}
	if n > 0 {
		w.statMu.Lock()
		w.planned += uint64(n)
		w.statMu.Unlock()
	}
}

// dropUnclaimed releases every announce the finished batch did not claim —
// a shed read, a failed Begin — plus speculative group lines whose
// planning horizon has passed. DropPrefetch on a line a read consumed in
// the meantime is a no-op, so expiry needs no consumption tracking.
func (w *worker) dropUnclaimed() {
	if w.dropper == nil {
		return
	}
	for id := range w.ann {
		w.dropper.DropPrefetch(id)
		delete(w.annOut, id)
	}
	clear(w.ann)
	w.serveSeq++
	for len(w.spec) > 0 && w.spec[0].expire <= w.serveSeq {
		sl := w.spec[0]
		w.spec = w.spec[1:]
		if w.annOut[sl.id] {
			w.dropper.DropPrefetch(sl.id)
			delete(w.annOut, sl.id)
		}
	}
}

// serve executes one coalesced batch in arrival order. cache maps block id
// to the plaintext most recently produced inside this batch for an id the
// batch names again; a read whose id is cached is served by fan-out instead
// of a second ORAM access.
func (w *worker) serve(batch []submission, cache map[uint64][]byte) {
	clear(cache)
	if w.staged != nil {
		w.batchSeq++
		clear(w.inflight) // earlier batches' entries no longer feed this cache
	}
	if w.prefetcher != nil && w.deep == nil {
		// Deep mode announced this batch in runDeep's look-ahead pass (it
		// always re-covers the front batch right before serving).
		w.plan(batch)
	}
	w.mark(batch)
	now := time.Now()
	for bi := range batch {
		sub := &batch[bi]
		switch {
		case w.deadline > 0 && sub.fn == nil && now.Sub(sub.t0) > w.deadline:
			// Overload shedding: a submission whose admission deadline
			// expired while queued is dropped here, before the engine or
			// backend sees it — its requests cost no ORAM access, emit no
			// adversary-visible traffic, and are always safe to retry.
			w.statMu.Lock()
			w.sheds += uint64(len(sub.reqs))
			w.statMu.Unlock()
			for i := range sub.reqs {
				sub.done(i, nil, ErrRetry)
			}
		case sub.fn != nil: // Sync: behind everything queued ahead of it
			w.drainPipe(cache)
			sub.fn()
			sub.done(0, nil, nil)
		case w.staged == nil:
			w.serveInline(sub, now, cache)
		default:
			for i := range sub.reqs {
				w.begin(pendingOp{r: &sub.reqs[i], i: i, t0: sub.t0, tExec: now, done: sub.done, seq: w.batchSeq}, cache)
			}
		}
	}
	w.dropUnclaimed()
}

// mark is the dedup pre-pass: it flags every op whose id an earlier op of
// the batch names (dup) or a later one does (recur), so a batch of distinct
// ids never touches the cache. A shed submission's ops stay marked; that
// costs at most a spare entry or a missed lookup.
func (w *worker) mark(batch []submission) {
	if len(batch) == 1 && len(batch[0].reqs) == 1 {
		return
	}
	for _, sub := range batch {
		for i := range sub.reqs {
			r := &sub.reqs[i]
			if r.op == opSync {
				continue
			}
			if prev, ok := w.lastOp[r.id]; ok {
				prev.recur, r.dup = true, true
			}
			w.lastOp[r.id] = r
		}
	}
	clear(w.lastOp) // empty between batches: it must not pin their slabs
}

// serveInline runs one submission to completion on the worker — the
// executor of a backend that is not staged. Every op executes, then one
// clock read and one statMu section account for the whole slab, then its
// completions run: a caller that has seen its completion also finds the op
// in Stats, and submissions coalesced behind this one are not waited for.
func (w *worker) serveInline(sub *submission, tExec time.Time, cache map[uint64][]byte) {
	hits := 0
	for i := range sub.reqs {
		r := &sub.reqs[i]
		if r.op == OpWrite {
			r.err = w.backend.Write(r.id, r.data)
			if r.err != nil {
				delete(cache, r.id) // never serve a stale fan-out after a failed write
			} else if r.recur {
				cache[r.id] = r.data // the worker's own copy, never handed out
			}
			r.data = nil
			continue
		}
		if r.dup {
			if data, ok := cache[r.id]; ok {
				r.data = append([]byte(nil), data...)
				hits++
				continue
			}
		}
		r.data, r.err = w.backend.Read(r.id)
		if r.recur && r.err == nil {
			cache[r.id] = append([]byte(nil), r.data...)
		}
	}
	us := float64(time.Since(sub.t0)) / float64(time.Microsecond)
	queueUs := float64(tExec.Sub(sub.t0)) / float64(time.Microsecond)
	w.statMu.Lock()
	w.dedup += uint64(hits)
	for i := range sub.reqs {
		w.observe(sub.reqs[i].op, us, queueUs)
	}
	w.statMu.Unlock()
	for i := range sub.reqs {
		sub.done(i, sub.reqs[i].data, sub.reqs[i].err)
	}
}

// begin runs one op of the staged executor: serve it from the dedup cache,
// or begin its access and queue it on the pipe behind at most depth-1
// others.
func (w *worker) begin(p pendingOp, cache map[uint64][]byte) {
	r := p.r
	if r.op == OpRead {
		// Order same-id operations: an in-flight access to this id from
		// the current batch must land (populating the cache) before the
		// read is served — the serial executor's arrival-order/dedup
		// semantics, preserved across the pipeline.
		for w.inflight[r.id] > 0 {
			w.completeOne(cache)
		}
		if data, ok := cache[r.id]; ok {
			w.statMu.Lock()
			w.dedup++
			w.statMu.Unlock()
			w.finish(&p, append([]byte(nil), data...), nil)
			return
		}
	}
	if len(w.pipe) >= w.depth {
		w.completeOne(cache)
	}
	var err error
	if r.op == OpWrite {
		if p.acc, err = w.staged.BeginWrite(r.id, r.data); err != nil {
			delete(cache, r.id)
		}
	} else {
		p.acc, err = w.staged.BeginRead(r.id)
		if w.ann != nil && (w.ann[r.id] || w.annOut[r.id]) {
			if err == nil {
				// The Begin claimed this id's outstanding announce (the
				// current batch's demand line, a speculative group line,
				// or a future batch's early announce) — no batch-end
				// drop needed, and the id is free to announce again.
				delete(w.ann, r.id)
				delete(w.annOut, r.id)
			} else if w.ann[r.id] {
				// A failed Begin never reaches the backend's claim path;
				// release the announce immediately.
				delete(w.ann, r.id)
				delete(w.annOut, r.id)
				w.dropper.DropPrefetch(r.id)
			}
		}
	}
	if err != nil {
		w.finish(&p, nil, err)
		return
	}
	w.pipe = append(w.pipe, p)
	w.inflight[r.id]++
}

// plan is the batch-admission prefetch pass (DESIGN.md §10): before any of
// the batch executes, announce each distinct id whose first operation is a
// read. Those are exactly the ids the dedup discipline turns into one
// BeginRead each, so every accepted announcement is consumed within the
// batch — unless the read is shed at pickup or its Begin fails, which is
// why accepted ids are also tracked in w.ann (backends with DropPrefetch)
// and released at batch end if unclaimed. Ids first touched by a write are
// skipped (the write would just invalidate the fetched payload).
func (w *worker) plan(batch []submission) {
	clear(w.pfSeen)
	accepted := uint64(0)
	for _, sub := range batch {
		for _, r := range sub.reqs {
			if r.op == opSync || w.pfSeen[r.id] {
				continue
			}
			w.pfSeen[r.id] = true
			if r.op == OpRead && w.prefetcher.PrefetchRead(r.id) {
				accepted++
				if w.ann != nil {
					w.ann[r.id] = true
				}
			}
		}
	}
	if accepted > 0 {
		w.statMu.Lock()
		w.planned += accepted
		w.statMu.Unlock()
	}
}

// completeOne resolves the oldest in-flight access: wait out its I/O,
// update the dedup cache (current-batch entries only), and finish its
// request. Requests therefore resolve in begin order.
func (w *worker) completeOne(cache map[uint64][]byte) {
	p := w.pipe[0]
	copy(w.pipe, w.pipe[1:])
	w.pipe = w.pipe[:len(w.pipe)-1]
	data, err := p.acc.Wait()
	if r := p.r; p.seq == w.batchSeq {
		if n := w.inflight[r.id]; n > 1 {
			w.inflight[r.id] = n - 1
		} else {
			delete(w.inflight, r.id)
		}
		switch wr := r.op == OpWrite; {
		case wr && err != nil:
			delete(cache, r.id) // never serve a stale fan-out after a failed write
		case err != nil || !r.recur:
		case wr:
			cache[r.id] = r.data // the worker's own copy, never handed out
		default:
			cache[r.id] = append([]byte(nil), data...)
		}
	}
	w.finish(&p, data, err)
}

// drainPipe completes every in-flight access.
func (w *worker) drainPipe(cache map[uint64][]byte) {
	for len(w.pipe) > 0 {
		w.completeOne(cache)
	}
}

// finish records a staged op's latency and runs its completion.
func (w *worker) finish(p *pendingOp, data []byte, err error) {
	us := float64(time.Since(p.t0)) / float64(time.Microsecond)
	queueUs := float64(p.tExec.Sub(p.t0)) / float64(time.Microsecond)
	w.statMu.Lock()
	w.observe(p.r.op, us, queueUs)
	w.statMu.Unlock()
	p.done(p.i, data, err)
}

// observe records one op's latency — total per op class, plus the
// queue-wait and execute split. statMu is held.
func (w *worker) observe(op Op, us, queueUs float64) {
	if op == OpRead {
		w.readLat.Add(us)
	} else {
		w.writeLat.Add(us)
	}
	w.queueLat.Add(queueUs)
	w.execLat.Add(us - queueUs)
}

// LatencySummary condenses one operation class's latency distribution.
type LatencySummary struct {
	N            uint64
	MeanUs       float64
	P50Us, P99Us float64
}

// Stats is a point-in-time service snapshot. ReadLat/WriteLat are
// submission-to-completion totals per op class; QueueLat/ExecLat split the
// same interval (across both classes) into time spent waiting in the shard
// queue versus executing on the worker, so a pipeline win (shorter
// execute, emptier queue) is attributable from the snapshot alone.
type Stats struct {
	Reads, Writes uint64 // completed operations
	DedupHits     uint64 // reads served by intra-batch fan-out
	// PrefetchPlanned counts batch-admission read announcements the
	// backend accepted (Config.Prefetch). How many were consumed or went
	// stale is the backend's accounting (shard.Counters → TrafficReport).
	PrefetchPlanned uint64
	// Sheds counts requests dropped at worker pickup because their
	// admission deadline (Config.AdmissionDeadline) had expired. Shed
	// requests resolve with ErrRetry, execute nothing, and appear in no
	// latency histogram — Reads/Writes and the percentiles describe
	// admitted operations only.
	Sheds    uint64
	ReadLat  LatencySummary
	WriteLat LatencySummary
	QueueLat LatencySummary // queue entry -> worker pickup
	ExecLat  LatencySummary // worker pickup -> completion
}

// QueueDepths reports each shard's current request-queue occupancy (in
// queued submissions — a batch counts once). A point-in-time operability
// reading for the /metrics surface; safe at any time, including after
// Close (closed queues read 0).
func (s *Service) QueueDepths() []int {
	out := make([]int, len(s.workers))
	for i, w := range s.workers {
		out[i] = len(w.queue)
	}
	return out
}

// Stats aggregates counters and latency percentiles across all shards. Safe
// to call at any time, including while requests are in flight. Percentiles
// are bucketed upper bounds (5µs resolution, clamped at the ~20ms
// histogram range).
func (s *Service) Stats() Stats {
	return MergeStats([]*Service{s})
}

// MergeStats aggregates the snapshots of several Services with exactly the
// arithmetic Stats applies across one Service's workers: counters sum and
// latency histograms merge at the bucket level, so the combined percentiles
// are those of the pooled samples — not a lossy summary-of-summaries. The
// cluster node uses it to report one service snapshot across its per-shard
// Services (including the retired ones of migrated-away shards, whose
// served-operation history stays on this node). Safe at any time; a closed
// Service contributes its final counters.
func MergeStats(svcs []*Service) Stats {
	var out Stats
	reads, writes := newLatHistogram(), newLatHistogram()
	queued, execed := newLatHistogram(), newLatHistogram()
	for _, s := range svcs {
		for _, w := range s.workers {
			w.statMu.Lock()
			out.DedupHits += w.dedup
			out.PrefetchPlanned += w.planned
			out.Sheds += w.sheds
			reads.Merge(w.readLat)
			writes.Merge(w.writeLat)
			queued.Merge(w.queueLat)
			execed.Merge(w.execLat)
			w.statMu.Unlock()
		}
	}
	out.Reads = reads.N()
	out.Writes = writes.N()
	out.ReadLat = summarize(reads)
	out.WriteLat = summarize(writes)
	out.QueueLat = summarize(queued)
	out.ExecLat = summarize(execed)
	return out
}

func summarize(h *stats.Histogram) LatencySummary {
	return LatencySummary{
		N:      h.N(),
		MeanUs: h.Mean(),
		P50Us:  h.Quantile(0.50),
		P99Us:  h.Quantile(0.99),
	}
}
