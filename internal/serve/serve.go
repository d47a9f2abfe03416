// Package serve is one shard's request layer: a worker goroutine that owns
// the shard's backend, a bounded request queue with back-pressure,
// intra-batch same-block read deduplication (one ORAM access fans out to
// every waiter), completion callbacks, and latency histograms
// (internal/stats). A sharded store runs one Service per shard.
//
// Concurrency discipline: the backend is confined to exactly one worker
// goroutine — the engine-per-goroutine rule the sweep runner already
// follows (DESIGN.md §4.2) — so ORAM engines need no locks and the shard's
// request sequence executes deterministically. Clients only touch the
// queue and their own completions. Back-pressure is the queue send itself:
// when the bounded queue is full, a submit blocks until the worker drains,
// which bounds memory and keeps a closed-loop client honest.
//
// A request's outcome is delivered through exactly one primitive, its
// Completion, run on the worker. SubmitFunc and SubmitBatchFunc hand the
// caller's completion to the worker directly, so no goroutine waits per
// request; a blocking caller passes a completion that sends on a channel.
//
// The worker runs every submission to completion: each op executes on the
// worker — a run of consecutive writes as one Backend.WriteMany, so a
// durable engine frames and commits it as a unit — then the submission's
// latencies are recorded under one clock read and its completions run. The
// worker is the only goroutine its shard has (DESIGN.md §9). A backend
// whose group commit runs off the worker (CommitTracker) reports the
// commit in flight; the worker holds the completions of the writes that
// ran meanwhile until it settles, and keeps serving behind them.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"palermo/internal/backend"
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

// Backend is one shard's store, owned by its worker goroutine. WriteMany
// performs the writes data[i] -> ids[i] in slice order and reports each
// one's outcome in errs[i]; when it returns, every write it reported
// successful has been accepted by the store, as after Write. Close is
// called by the worker itself after its queue has drained, so a durable
// backend flushes and checkpoints on the same goroutine that owns it.
type Backend interface {
	Read(local uint64) ([]byte, error)
	Write(local uint64, data []byte) error
	WriteMany(ids []uint64, data [][]byte, errs []error)
	Close() error
}

// CommitTracker is implemented by a Backend whose writes can return while
// the group commit that makes them durable is still running. New looks
// the hook up once.
type CommitTracker interface {
	// InFlightFunc returns the function that reports the commit in flight
	// after a write (backend.Committer.InFlight), or nil when no write
	// ever waits for one.
	InFlightFunc() func() *backend.Commit
}

// Config tunes the service. The zero value uses the defaults.
type Config struct {
	// QueueDepth bounds the request queue, counted in queued submissions
	// (a batch counts once). Default 256.
	QueueDepth int
	// AdmissionDeadline bounds how long a request may wait in the queue
	// before the worker sheds it: a request picked up more than this long
	// after submission is answered ErrRetry without executing, so an
	// overloaded service degrades by shedding instead of by unbounded
	// queueing delay. Sheds happen strictly before any engine or backend
	// access. 0 (the default) disables shedding — every queued request
	// executes, the pre-overload behavior.
	AdmissionDeadline time.Duration
}

// maxBatch caps how many operations the worker coalesces into one served
// batch when draining its queue opportunistically. A single submission is
// never split, so an atomic SubmitBatchFunc larger than maxBatch still
// dedups as one unit.
const maxBatch = 64

// Completion receives one request's outcome: i is the request's index in
// its submission (0 for a single operation), data the payload of a
// successful read. It runs on the shard's worker goroutine, so it must not
// block — everything queued behind the request waits for it. It is called
// exactly once for every request of a submission that was accepted, and
// never for a submission that returned an error.
type Completion func(i int, data []byte, err error)

// submission is the internal queued form: one Submit* call's operations in
// one slab, with what they share — the submit time and the completion.
type submission struct {
	t0   time.Time // submission (queue entry)
	done Completion
	fn   func() // Sync only (reqs is then one opSync request)
	reqs []request
}

// heldWrite is one write completion held for a commit: what release needs
// to record its latency and run it.
type heldWrite struct {
	done    Completion
	i       int // the request's index in its submission
	err     error
	t0      time.Time
	queueUs float64
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

// Service is one shard's worker behind its bounded queue. It holds only
// what submitters share; everything the worker writes lives in its own
// allocation, which keeps the read lock every submit takes off the cache
// lines the worker writes per batch.
type Service struct {
	mu     sync.RWMutex // guards closed vs. in-flight queue sends
	closed bool
	wg     sync.WaitGroup
	w      *worker
}

// worker owns the backend.
type worker struct {
	backend  Backend
	queue    chan submission
	deadline time.Duration // admission deadline (0 = no shedding)

	// lastOp is mark's scratch, empty between batches: the latest op per id.
	lastOp map[uint64]*request

	// WriteMany's argument scratch, empty between write runs.
	ids  []uint64
	data [][]byte
	errs []error

	// inFlight is the backend's CommitTracker hook, nil for a backend that
	// has none. held are the write completions waiting for the commit
	// holdFor, in execution order; both are empty while no write waits.
	inFlight func() *backend.Commit
	held     []heldWrite
	holdFor  *backend.Commit

	// statMu guards the histograms and counters below; they are written by
	// the worker once per completed request and read by MergeStats.
	statMu sync.Mutex
	lat    latHists
	dedup  uint64
	sheds  uint64 // requests dropped at pickup (admission deadline expired)

	// closeErr is the backend's Close result, written by the worker
	// goroutine before it exits and read only after wg.Wait.
	closeErr error
}

// New starts the worker goroutine that owns b.
func New(b Backend, cfg Config) *Service {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 256
	}
	w := &worker{
		backend:  b,
		queue:    make(chan submission, cfg.QueueDepth),
		lastOp:   make(map[uint64]*request),
		deadline: cfg.AdmissionDeadline,
		lat:      newLatHists(),
	}
	if ct, ok := b.(CommitTracker); ok {
		w.inFlight = ct.InFlightFunc()
	}
	s := &Service{w: w}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		w.run()
	}()
	return s
}

// LatBuckets is the bucket count of a service latency histogram: 4096
// buckets of 5µs cover [0, ~20ms), with overflow counted. Percentiles come
// from bucket counts (stats.Histogram.Quantile), so service memory stays
// bounded no matter how many requests are served.
const LatBuckets = 4096

// latHists is a service's four latency histograms in microseconds, by
// class: read and write totals, then the queue-wait and execute split of
// both.
type latHists [4]*stats.Histogram

const (
	latRead = iota
	latWrite
	latQueue // submission -> worker pickup
	latExec  // worker pickup -> completion
)

func newLatHists() (h latHists) {
	for i := range h {
		h[i] = stats.NewHistogram(LatBuckets, 5)
	}
	return h
}

// SubmitFunc enqueues one operation; done receives its outcome on the
// worker (see Completion). It blocks while the queue is full
// (back-pressure). Write data is copied, so the caller may reuse its buffer
// as soon as SubmitFunc returns.
func (s *Service) SubmitFunc(op Op, id uint64, data []byte, done Completion) error {
	return s.SubmitBatchFunc([]Req{{Op: op, ID: id, Data: data}}, done)
}

// SubmitBatchFunc enqueues a batch atomically: the worker serves all of it
// as one unit, so same-block reads inside the batch are guaranteed to
// coalesce into a single ORAM access. done runs once per request, with the
// request's index in reqs.
func (s *Service) SubmitBatchFunc(reqs []Req, done Completion) error {
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
	return s.enqueue(sub)
}

// Sync runs fn on the worker goroutine, after every operation queued ahead
// of it, and returns once fn completes. It is the race-free way to observe
// worker-owned state (backend counters, traces) while the service is
// running.
func (s *Service) Sync(fn func()) error {
	ran := make(chan struct{})
	sub := submission{t0: time.Now(), fn: fn, done: func(int, []byte, error) { close(ran) }, reqs: []request{{op: opSync}}}
	if err := s.enqueue(sub); err != nil {
		return err
	}
	<-ran
	return nil
}

// enqueue sends a submission to the queue under the closed-state guard.
// Holding the read lock across a blocking send is safe: the worker drains
// until its queue is closed, and Close cannot close the queue until all
// in-flight sends release the lock.
func (s *Service) enqueue(sub submission) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.w.queue <- sub
	return nil
}

// Close stops accepting requests, drains every already-queued request to
// completion, closes the backend on the worker goroutine (flushing and
// checkpointing a durable backend), and waits for the worker to exit.
// Idempotent; every call returns the backend's close error.
func (s *Service) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.w.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.w.closeErr
}

// WaitClosed blocks until the worker goroutine has exited. Only
// meaningful once Close has begun (a concurrent Close may still be
// draining queued requests when other callers observe closed errors);
// calling it on an open service blocks until someone calls Close.
func (s *Service) WaitClosed() { s.wg.Wait() }

// run is the worker loop: receive a submission, opportunistically coalesce
// more queued ones up to maxBatch operations, serve, repeat. On queue close,
// everything already queued is still served before the backend closes.
func (w *worker) run() {
	cache := make(map[uint64][]byte)
	var batch []submission // scratch, reused across served batches
	for {
		sub, ok := w.next()
		if !ok {
			break
		}
		batch = append(batch[:0], sub)
	coalesce:
		for nops := len(sub.reqs); nops < maxBatch; nops += len(sub.reqs) {
			var ok bool
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
	if w.holdFor != nil {
		w.release()
	}
	w.closeErr = w.backend.Close()
}

// next receives the next submission. While write completions are held it
// releases them as soon as their commit settles, ahead of any submission.
func (w *worker) next() (submission, bool) {
	for w.holdFor != nil {
		select {
		case <-w.holdFor.Done():
			w.release()
			continue
		default:
		}
		select {
		case <-w.holdFor.Done():
			w.release()
		case sub, ok := <-w.queue:
			return sub, ok
		}
	}
	sub, ok := <-w.queue
	return sub, ok
}

// serve executes one coalesced batch in arrival order. cache maps block id
// to the plaintext most recently produced inside this batch for an id the
// batch names again; a read whose id is cached is served by fan-out instead
// of a second ORAM access.
func (w *worker) serve(batch []submission, cache map[uint64][]byte) {
	clear(cache)
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
			sub.fn()
			sub.done(0, nil, nil)
		default:
			w.serveInline(sub, now, cache)
		}
	}
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

// serveInline runs one submission to completion on the worker. Every op
// executes, then one clock read and one statMu section account for the
// whole slab, then its completions run: a caller that has seen its
// completion also finds the op in MergeStats, a write is completed only
// after the backend accepted it, and submissions coalesced behind this one
// are not waited for. A submission whose writes ran while the backend had
// a commit in flight hands them to hold instead.
func (w *worker) serveInline(sub *submission, tExec time.Time, cache map[uint64][]byte) {
	hits := 0
	wrote := false
	for i := 0; i < len(sub.reqs); i++ {
		r := &sub.reqs[i]
		if r.op == OpWrite {
			end := i + 1
			for end < len(sub.reqs) && sub.reqs[end].op == OpWrite {
				end++
			}
			w.writeRun(sub.reqs[i:end], cache)
			i = end - 1
			wrote = true
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
	if wrote && w.inFlight != nil {
		c := w.inFlight()
		if w.holdFor != nil && w.holdFor != c {
			w.release() // the backend moves past a commit only once it has settled
		}
		if c != nil {
			w.hold(sub, c, hits, us, queueUs)
			return
		}
	}
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

// hold completes a submission whose writes ran while the commit c was in
// flight: its reads at once, while its writes join the held list behind
// c. Each held write is recorded and completed by release, so the hold
// counts in its WriteLat and ExecLat: the caller waited for it.
func (w *worker) hold(sub *submission, c *backend.Commit, hits int, us, queueUs float64) {
	w.statMu.Lock()
	w.dedup += uint64(hits)
	for i := range sub.reqs {
		if sub.reqs[i].op != OpWrite {
			w.observe(sub.reqs[i].op, us, queueUs)
		}
	}
	w.statMu.Unlock()
	for i := range sub.reqs {
		r := &sub.reqs[i]
		if r.op == OpWrite {
			w.held = append(w.held, heldWrite{done: sub.done, i: i, err: r.err, t0: sub.t0, queueUs: queueUs})
			continue
		}
		sub.done(i, r.data, r.err)
	}
	w.holdFor = c
}

// release waits for the commit the held writes wait on, records their
// latencies under one clock read, and runs their completions in execution
// order, each with its own error or else the commit's.
func (w *worker) release() {
	cerr := w.holdFor.Err()
	now := time.Now()
	w.statMu.Lock()
	for _, h := range w.held {
		w.observe(OpWrite, float64(now.Sub(h.t0))/float64(time.Microsecond), h.queueUs)
	}
	w.statMu.Unlock()
	for _, h := range w.held {
		err := h.err
		if err == nil {
			err = cerr
		}
		h.done(h.i, nil, err)
	}
	clear(w.held) // an idle worker pins no caller's completion
	w.held, w.holdFor = w.held[:0], nil
}

// writeRun executes a run of consecutive writes of one submission — as one
// WriteMany when there is more than one — and settles the dedup cache in
// run order.
func (w *worker) writeRun(run []request, cache map[uint64][]byte) {
	if len(run) == 1 {
		run[0].err = w.backend.Write(run[0].id, run[0].data)
	} else {
		for i := range run {
			w.ids = append(w.ids, run[i].id)
			w.data = append(w.data, run[i].data)
			w.errs = append(w.errs, nil)
		}
		w.backend.WriteMany(w.ids, w.data, w.errs)
		for i := range run {
			run[i].err = w.errs[i]
		}
		clear(w.data) // an idle worker pins no caller's slab
		clear(w.errs)
		w.ids, w.data, w.errs = w.ids[:0], w.data[:0], w.errs[:0]
	}
	for i := range run {
		r := &run[i]
		if r.err != nil {
			delete(cache, r.id) // never serve a stale fan-out after a failed write
		} else if r.recur {
			cache[r.id] = r.data // the worker's own copy, never handed out
		}
		r.data = nil
	}
}

// observe records one op's latency — total per op class, plus the
// queue-wait and execute split. statMu is held.
func (w *worker) observe(op Op, us, queueUs float64) {
	if op == OpRead {
		w.lat[latRead].Add(us)
	} else {
		w.lat[latWrite].Add(us)
	}
	w.lat[latQueue].Add(queueUs)
	w.lat[latExec].Add(us - queueUs)
}

// LatencySummary condenses one operation class's latency distribution.
// Percentiles are bucketed upper bounds (5µs resolution, clamped at the
// ~20ms histogram range).
type LatencySummary struct {
	N            uint64
	MeanUs       float64
	P50Us, P99Us float64
}

// Summarize condenses a latency histogram in microseconds.
func Summarize(h *stats.Histogram) LatencySummary {
	return LatencySummary{
		N:      h.N(),
		MeanUs: h.Mean(),
		P50Us:  h.Quantile(0.50),
		P99Us:  h.Quantile(0.99),
	}
}

// Stats is a point-in-time service snapshot. ReadLat/WriteLat are
// submission-to-completion totals per op class; QueueLat/ExecLat split the
// same interval (across both classes) into time spent waiting in the shard
// queue versus executing on the worker. Each summary condenses a histogram
// the snapshot keeps, so snapshots combine exactly (Merge, Sub).
type Stats struct {
	Reads, Writes uint64 // completed operations
	DedupHits     uint64 // reads served by intra-batch fan-out
	// PrefetchPlanned is always zero.
	//
	// Deprecated: the benchmark still reads it; delete with ROADMAP item
	// 5(a).
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

	// lat holds the histograms the summaries condense — read, write,
	// queue, exec — in compact form: what the combines add and subtract
	// and what crosses the wire.
	lat [4]stats.Counts
}

// QueueDepth reports the request queue's current occupancy (in queued
// submissions — a batch counts once). A point-in-time operability reading
// for the /metrics surface; safe at any time, including after Close (a
// closed queue reads 0).
func (s *Service) QueueDepth() int { return len(s.w.queue) }

// MergeStats is the Merge of the services' current snapshots. A store
// reports one snapshot across its per-shard Services this way, and a
// cluster node includes the retired ones of migrated-away shards, whose
// served-operation history stays on that node. Safe at any time,
// including while requests are in flight; a closed Service contributes its
// final counters.
func MergeStats(svcs []*Service) Stats {
	snaps := make([]Stats, len(svcs))
	for i, s := range svcs {
		w := s.w
		w.statMu.Lock()
		snaps[i] = Stats{DedupHits: w.dedup, Sheds: w.sheds, lat: w.lat.counts()}
		w.statMu.Unlock()
	}
	return Merge(snaps...)
}

// Merge pools snapshots of disjoint operation streams — the shards of a
// store, a node's retired services, the nodes of a cluster — into one:
// counters sum and histograms add bucket by bucket, so every summary is
// that of the pooled samples, as if one service had served them all.
func Merge(snaps ...Stats) Stats {
	h := newLatHists()
	var dedup, sheds uint64
	for _, s := range snaps {
		dedup += s.DedupHits
		sheds += s.Sheds
		for i := range h {
			h[i].AddCounts(s.lat[i])
		}
	}
	return h.stats(dedup, sheds)
}

// Sub returns what one target served between two of its snapshots, base
// and the later end: counters and histograms subtract exactly, so the
// summaries are those of the interval's own samples, whatever history the
// target carried before base.
func Sub(end, base Stats) Stats {
	h := newLatHists()
	for i := range h {
		h[i].AddCounts(end.lat[i])
		h[i].SubCounts(base.lat[i])
	}
	return h.stats(end.DedupHits-base.DedupHits, end.Sheds-base.Sheds)
}

// Hists returns s's histograms — read, write, queue, exec — in compact
// form, for the wire.
func Hists(s Stats) [4]stats.Counts { return s.lat }

// FromHists rebuilds a snapshot from its counters and the histograms Hists
// returned; it panics on a bucket index at or past LatBuckets.
func FromHists(dedupHits, sheds uint64, lat [4]stats.Counts) Stats {
	return Merge(Stats{DedupHits: dedupHits, Sheds: sheds, lat: lat})
}

// stats condenses the histograms into a snapshot.
func (h latHists) stats(dedup, sheds uint64) Stats {
	return Stats{
		Reads: h[latRead].N(), Writes: h[latWrite].N(), DedupHits: dedup, Sheds: sheds,
		ReadLat: Summarize(h[latRead]), WriteLat: Summarize(h[latWrite]),
		QueueLat: Summarize(h[latQueue]), ExecLat: Summarize(h[latExec]),
		lat: h.counts(),
	}
}

func (h latHists) counts() (c [4]stats.Counts) {
	for i, x := range h {
		c[i] = x.Counts()
	}
	return c
}
