package palermo

// The shard host is the one road from a store configuration to running
// shards, shared by both front ends (DESIGN.md §6): it validates and
// defaults the configuration, opens each shard's backend and engine,
// applies every tunable, confines each shard to a one-worker service, and
// implements request routing and every aggregate snapshot once.
// ShardedStore is a host that owns every slot; ClusterNode adds the
// geometry lock, placement epochs and migration on top.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"palermo/internal/backend"
	"palermo/internal/backend/blockfile"
	"palermo/internal/backend/durable"
	"palermo/internal/backend/wal"
	"palermo/internal/oram"
	"palermo/internal/serve"
	"palermo/internal/shard"
	"palermo/internal/wire"
)

// slot is one hosted shard.
type slot struct {
	sh  *shard.Shard
	be  backend.Backend // nil = memory engine; kept for fsync telemetry
	svc *serve.Service  // the shard's single worker
	// held pauses admission while the shard stays hosted (a migration's
	// cutover barrier). Guarded by the owner's geometry lock.
	held bool
}

// slotSet is indexed by shard; nil marks a shard not hosted here.
type slotSet []*slot

// host owns the normalized configuration and the slots built from it.
// ShardedStore never changes slots after construction; ClusterNode guards
// slots and traceOn with its geometry lock.
type host struct {
	cfg     ShardedStoreConfig
	router  shard.Router
	slots   slotSet
	traceOn bool
	scratch sync.Pool // of *batchScratch
}

// notServed is the host's rejection of an operation naming a shard it does
// not currently serve (never produced by a ShardedStore, which hosts every
// shard); ClusterNode dresses it as the wrong-epoch status.
type notServed int

func (s notServed) Error() string { return fmt.Sprintf("palermo: shard %d is not served here", int(s)) }

// normalize validates the configuration and fills in its defaults in
// place. Rejecting here keeps bad values from surfacing as deep engine
// failures. cluster marks a ClusterNode's configuration: its shards seal
// their state into a blob to migrate, whatever the engine.
func (c *ShardedStoreConfig) normalize(cluster bool) (shard.Router, error) {
	var none shard.Router
	c.defaults()
	if c.Blocks > MaxBlocks {
		return none, fmt.Errorf("palermo: Blocks %d exceeds the maximum capacity of %d blocks", c.Blocks, uint64(MaxBlocks))
	}
	if k := len(c.Key); k != 16 && k != 24 && k != 32 {
		return none, fmt.Errorf("palermo: Key must be 16, 24, or 32 bytes (AES-128/192/256), got %d", k)
	}
	if c.Shards < 1 || c.Shards > MaxShards {
		return none, fmt.Errorf("palermo: Shards must be in [1, %d], got %d", MaxShards, c.Shards)
	}
	if c.QueueDepth < 0 {
		return none, fmt.Errorf("palermo: QueueDepth must be >= 0")
	}
	router, err := shard.NewRouter(c.Blocks, c.Shards)
	if err != nil {
		return none, fmt.Errorf("palermo: %w", err)
	}
	switch c.Engine {
	case BackendMemory:
		if c.Dir != "" {
			return none, fmt.Errorf("palermo: Dir is set but Engine is %q (did you mean Engine: palermo.BackendWAL or palermo.BackendBlockfile?)", c.Engine)
		}
	case BackendWAL, BackendBlockfile:
		if c.Dir == "" {
			return none, fmt.Errorf("palermo: Engine %q requires Dir", c.Engine)
		}
	default:
		return none, fmt.Errorf("palermo: unknown Engine %q (want %q, %q, or %q)", c.Engine, BackendMemory, BackendWAL, BackendBlockfile)
	}
	// A durable shard seals its whole state into one blob at every
	// checkpoint, a cluster shard at every migration: refuse a shard whose
	// worst-case state could outgrow it, before any write is acknowledged.
	if limit := shard.MaxSealableBlocks(); (cluster || c.Engine != BackendMemory) && router.ShardBlocks(0) > limit {
		return none, fmt.Errorf("palermo: a durable or cluster shard holds at most %d blocks (its checkpoint must fit one sealed blob), got %d per shard; raise Shards",
			limit, router.ShardBlocks(0))
	}
	// Every shard's engine is one tree over its blocks, whose buckets
	// store a block id in 32 bits.
	if limit := uint64(oram.MaxLevelBlocks); router.ShardBlocks(0) > limit {
		return none, fmt.Errorf("palermo: a shard holds at most %d blocks (its engine stores block ids in 32 bits), got %d per shard; raise Shards",
			limit, router.ShardBlocks(0))
	}
	return router, nil
}

// newHost normalizes cfg and, for a durable engine, pins the directory's
// manifest. The manifest records the GLOBAL geometry and engine — every
// node of a cluster agrees on it even though each directory holds only
// its own shard subdirectories. No slot is opened yet. cluster is
// normalize's.
func newHost(cfg ShardedStoreConfig, cluster bool) (*host, error) {
	router, err := cfg.normalize(cluster)
	if err != nil {
		return nil, err
	}
	if cfg.Dir != "" {
		if err := durable.EnsureManifest(cfg.Dir, durable.Manifest{Version: durable.ManifestVersion, Blocks: cfg.Blocks, Shards: cfg.Shards, Engine: cfg.Engine}); err != nil {
			return nil, fmt.Errorf("palermo: %w", err)
		}
	}
	return &host{cfg: cfg, router: router, slots: make(slotSet, cfg.Shards)}, nil
}

func (h *host) shardDir(s int) string {
	return filepath.Join(h.cfg.Dir, fmt.Sprintf("shard-%04d", s))
}

// openSlot opens shard s's backend and builds its engine over it,
// recovering whatever the directory holds. The engine seed is
// shard.DeriveSeed(Seed, s), which the determinism goldens pin. The slot is
// bare — untuned, no worker, not installed — so a migration can import
// state into it first.
func (h *host) openSlot(s int) (*slot, error) {
	var be backend.Backend
	var err error
	switch h.cfg.Engine {
	case BackendWAL:
		be, err = wal.Open(h.shardDir(s), wal.Options{GroupCommit: h.cfg.GroupCommit, Capacity: h.router.ShardBlocks(s)})
	case BackendBlockfile:
		be, err = blockfile.Open(h.shardDir(s), blockfile.Options{GroupCommit: h.cfg.GroupCommit, Capacity: h.router.ShardBlocks(s)})
	}
	if err != nil {
		return nil, fmt.Errorf("palermo: shard %d: %w", s, err)
	}
	sh, err := shard.New(s, h.cfg.Shards, h.router.ShardBlocks(s), h.cfg.Key, shard.DeriveSeed(h.cfg.Seed, s), be)
	if err != nil {
		if be != nil {
			be.Close()
		}
		return nil, fmt.Errorf("palermo: shard %d: %w", s, err)
	}
	return &slot{sh: sh, be: be}, nil
}

// adoptSlot applies every store tunable to a bare slot, starts its worker
// and installs it as shard s. A serve.Service is one shard's worker, so
// migration adds and removes slots at run time without touching any other
// shard's.
func (h *host) adoptSlot(s int, sl *slot) {
	switch every := h.cfg.CheckpointEvery; {
	case every < 0: // periodic checkpoints off; Close still writes one
		sl.sh.SetCheckpointEvery(0)
	case every > 0:
		sl.sh.SetCheckpointEvery(uint64(every))
	}
	if h.traceOn {
		sl.sh.EnableTrace()
	}
	sl.svc = serve.New(sl.sh, serve.Config{
		QueueDepth:        h.cfg.QueueDepth,
		AdmissionDeadline: h.cfg.AdmissionDeadline,
	})
	h.slots[s] = sl
}

// --- requests -----------------------------------------------------------

func (h *host) checkID(id uint64) error {
	if id >= h.router.Blocks() {
		return fmt.Errorf("palermo: block %d outside capacity %d", id, h.router.Blocks())
	}
	return nil
}

func checkBlock(data []byte) error {
	if len(data) != BlockSize {
		return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockSize, len(data))
	}
	return nil
}

// route resolves a valid id to its serving slot and shard-local id.
func (h *host) route(id uint64) (*slot, uint64, error) {
	s, local := h.router.Route(id)
	if sl := h.slots[s]; sl != nil && !sl.held {
		return sl, local, nil
	}
	return nil, 0, notServed(s)
}

// submit is the completion-taking form of a single-block request:
// validate, route, enqueue, return. done is the shard worker's completion
// (serve.Completion: it must not block, runs exactly once, and never when
// submit returns an error). data is copied before submit returns.
func (h *host) submit(op serve.Op, id uint64, data []byte, done serve.Completion) error {
	if err := h.checkID(id); err != nil {
		return err
	}
	if op == serve.OpWrite {
		if err := checkBlock(data); err != nil {
			return err
		}
	}
	sl, local, err := h.route(id)
	if err != nil {
		return err
	}
	return sl.svc.SubmitFunc(op, local, data, done)
}

// submitBatch is the completion-taking form of ReadBatch (op OpRead,
// blocks unused) and WriteBatch: it validates every entry, partitions the
// batch by shard and submits each shard's subset as one atomic batch (so
// duplicate ids inside the call share one ORAM access). One countdown over
// all sub-requests then calls done — on the worker that completes the last
// of them — with the read payloads scattered back to input order, or with
// the first failure once every submitted request has completed. If ANY id
// routes to a shard not served here the whole batch is rejected before
// anything is submitted — the frame atomicity behind the wrong-epoch
// status: a rejected frame executed nothing, so a client retry cannot
// duplicate operations. Like submit, an error return means nothing was
// enqueued and done will not run; ids and blocks are dead once it returns.
func (h *host) submitBatch(op serve.Op, ids []uint64, blocks [][]byte, done func([][]byte, error)) error {
	if op == serve.OpWrite && len(ids) != len(blocks) {
		return fmt.Errorf("palermo: WriteBatch got %d ids but %d blocks", len(ids), len(blocks))
	}
	for i, id := range ids {
		if err := h.checkID(id); err != nil {
			return err
		}
		if op == serve.OpWrite {
			if err := checkBlock(blocks[i]); err != nil {
				return err
			}
		}
	}
	// Counting sort by shard into one pooled array (a submission copies its
	// requests, so nothing here outlives the call).
	sc, _ := h.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = new(batchScratch)
	}
	defer h.scratch.Put(sc)
	if cap(sc.end) < len(h.slots) || cap(sc.reqs) < len(ids) {
		sc.end, sc.reqs = make([]int, len(h.slots)), make([]serve.Req, len(ids))
	}
	end, reqs := sc.end[:len(h.slots)], sc.reqs[:len(ids)]
	clear(end)
	for _, id := range ids {
		s, _ := h.router.Route(id)
		if sl := h.slots[s]; sl == nil || sl.held {
			return notServed(s)
		}
		end[s]++
	}
	sum := 0
	for s, n := range end {
		end[s], sum = sum, sum+n // the sub-batch's start, until the scatter below fills it
	}
	j := &batchJoin{done: done}
	if op == serve.OpRead {
		j.out = make([][]byte, len(ids))
		j.pos = make([]int, len(ids))
	}
	defer clear(reqs) // the pool must not pin the caller's blocks
	for i, id := range ids {
		s, local := h.router.Route(id)
		k := end[s]
		end[s]++
		reqs[k] = serve.Req{Op: op, ID: local}
		if op == serve.OpWrite {
			reqs[k].Data = blocks[i]
		} else {
			j.pos[k] = i
		}
	}
	// The submitter holds one count of its own, so the join cannot fire
	// while sub-batches are still being enqueued.
	j.left.Store(int64(len(ids)) + 1)
	enqueued := false
	for s, start := 0, 0; s < len(end); s, start = s+1, end[s] {
		rs := reqs[start:end[s]]
		if len(rs) == 0 {
			continue
		}
		var at []int // reads only: each request's position in the caller's order
		if j.pos != nil {
			at = j.pos[start:end[s]]
		}
		err := h.slots[s].svc.SubmitBatchFunc(rs, func(i int, data []byte, err error) {
			if err != nil {
				j.fail(err)
			} else if at != nil {
				j.out[at[i]] = data
			}
			j.release()
		})
		if err != nil {
			// This shard's service is closing: its requests will never
			// complete, the other shards' still do.
			j.fail(err)
			j.left.Add(-int64(len(rs)))
			continue
		}
		enqueued = true
	}
	if !enqueued && j.err != nil {
		return j.err
	}
	j.release()
	return nil
}

// batchScratch is submitBatch's pooled partition space.
type batchScratch struct {
	end  []int       // per shard: where its sub-batch ends in reqs
	reqs []serve.Req // the batch, grouped by shard
}

// batchJoin is the countdown completion of one multi-shard batch: every
// sub-request (and the submitter) releases one count, and whoever releases
// the last calls done.
type batchJoin struct {
	left atomic.Int64
	out  [][]byte // read payloads in the caller's order; nil for a write batch
	pos  []int    // reads: the caller's position of each request, grouped by shard
	done func([][]byte, error)

	mu  sync.Mutex
	err error // first failure
}

func (j *batchJoin) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

func (j *batchJoin) release() {
	if j.left.Add(-1) == 0 {
		// The atomic orders every out write and fail before this read.
		j.done(j.out, j.err)
	}
}

// submitter is the completion-taking request surface a ShardedStore
// (through its host) and a ClusterNode (under its geometry lock) share.
type submitter interface {
	submit(op serve.Op, id uint64, data []byte, done serve.Completion) error
	submitBatch(op serve.Op, ids []uint64, blocks [][]byte, done func([][]byte, error)) error
}

// await is the blocking form of submit: submit, then wait for the
// completion (which never runs if the submit was refused).
func await(s submitter, op serve.Op, id uint64, data []byte) ([]byte, error) {
	type outcome struct {
		data []byte
		err  error
	}
	ch := make(chan outcome, 1)
	err := s.submit(op, id, data, func(_ int, data []byte, err error) { ch <- outcome{data, err} })
	if err != nil {
		return nil, err
	}
	out := <-ch
	return out.data, out.err
}

// awaitBatch is the blocking form of submitBatch.
func awaitBatch(s submitter, op serve.Op, ids []uint64, blocks [][]byte) ([][]byte, error) {
	type outcome struct {
		blocks [][]byte
		err    error
	}
	ch := make(chan outcome, 1)
	err := s.submitBatch(op, ids, blocks, func(blocks [][]byte, err error) { ch <- outcome{blocks, err} })
	if err != nil {
		return nil, err
	}
	out := <-ch
	return out.blocks, out.err
}

// --- snapshots ----------------------------------------------------------

// onWorker runs fn where it may touch worker-owned engine state: on the
// slot's worker behind everything already queued, or directly once the
// worker has exited (a Close may still be draining — wait it out first).
func (sl *slot) onWorker(fn func()) {
	if err := sl.svc.Sync(fn); err != nil {
		sl.svc.WaitClosed()
		fn()
	}
}

// traffic folds the slots' engine counters into one report, consistent
// with every operation that completed before the call.
func (ss slotSet) traffic() TrafficReport {
	var rep TrafficReport
	for _, sl := range ss {
		if sl == nil {
			continue
		}
		var c shard.Counters
		sl.onWorker(func() { c = sl.sh.Snapshot() })
		rep.add(TrafficReport{
			Reads: c.Reads, Writes: c.Writes, DRAMReads: c.DRAMReads, DRAMWrites: c.DRAMWrites,
			TreeTopHits: c.TreeTopHits, StashPeak: c.StashPeak,
		})
	}
	return rep
}

// serviceStats merges the slots' services, plus any retired ones
// (serve.MergeStats).
func (ss slotSet) serviceStats(retired []*serve.Service) ServiceStats {
	svcs := make([]*serve.Service, 0, len(ss)+len(retired))
	for _, sl := range ss {
		if sl != nil {
			svcs = append(svcs, sl.svc)
		}
	}
	return serve.MergeStats(append(svcs, retired...))
}

// queueDepths maps each hosted shard to its queue occupancy.
func (ss slotSet) queueDepths() map[int]int {
	out := make(map[int]int, len(ss))
	for s, sl := range ss {
		if sl != nil {
			out[s] = sl.svc.QueueDepth()
		}
	}
	return out
}

// fsyncLag sums the durable backends' fsync count and cumulative wait;
// the memory engine has no such telemetry and contributes zero.
func (ss slotSet) fsyncLag() (count uint64, total time.Duration) {
	for _, sl := range ss {
		if sl == nil {
			continue
		}
		if fs, ok := sl.be.(interface {
			FsyncStats() (uint64, time.Duration)
		}); ok {
			n, d := fs.FsyncStats()
			count += n
			total += d
		}
	}
	return count, total
}

// leafTrace copies shard s's recorded trace on its worker.
func (sl *slot) leafTrace(s int) LeafTrace {
	lt := LeafTrace{Shard: s}
	sl.onWorker(func() {
		lt.NumLeaves = sl.sh.DataLeaves()
		if tr := sl.sh.Trace(); tr != nil {
			lt.Leaves = append([]uint64(nil), tr.Leaves...)
		}
	})
	return lt
}

func (ss slotSet) leafTraces() []LeafTrace {
	out := make([]LeafTrace, 0, len(ss))
	for s, sl := range ss {
		if sl != nil {
			out = append(out, sl.leafTrace(s))
		}
	}
	return out
}

// enableTraces starts trace recording on every hosted shard and on any
// slot adopted later. Call before serving starts.
func (h *host) enableTraces() {
	h.traceOn = true
	for _, sl := range h.slots {
		if sl != nil {
			sl.sh.EnableTrace()
		}
	}
}

// wireStats is the one builder of the wire snapshot (the Stats op and the
// handshake): service stats of live plus retired services, engine traffic
// of the live slots, and the placement fields. A standalone store passes
// no retired services and epoch 0, and owns every shard.
func (h *host) wireStats(live slotSet, retired []*serve.Service, epoch uint64) wire.Stats {
	ss, tr := live.serviceStats(retired), live.traffic()
	first, owned := 0, 0
	for s, sl := range live {
		if sl == nil {
			continue
		}
		if owned == 0 {
			first = s
		}
		owned++
	}
	return wire.Stats{
		Blocks:      h.router.Blocks(),
		Shards:      uint32(h.router.Shards()),
		DedupHits:   ss.DedupHits,
		Sheds:       ss.Sheds,
		Lat:         serve.Hists(ss),
		EngineReads: tr.Reads, EngineWrites: tr.Writes,
		DRAMReads: tr.DRAMReads, DRAMWrites: tr.DRAMWrites,
		StashPeak:   uint32(tr.StashPeak),
		TreeTopHits: tr.TreeTopHits,
		Epoch:       epoch, FirstShard: uint32(first), OwnedShards: uint32(owned),
	}
}

// close stops admission on every slot at once and lets them drain, flush
// and checkpoint concurrently, each on its own worker. Idempotent: a
// closed service re-reports its first outcome.
func (ss slotSet) close() error {
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for s, sl := range ss {
		if sl == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = sl.svc.Close()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
