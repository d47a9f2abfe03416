package palermo

// ShardedStore is the in-process oblivious block store: block ids are
// deterministically striped across S independent ORAM shards (each with a
// private Ring engine, sealer counter-domain, and derived seed), and each
// shard is served by a dedicated worker goroutine behind a bounded request
// queue. It is safe for concurrent use from any number of goroutines and
// its throughput scales with shards × cores; Shards: 1 is the single-tree
// store. Reads and writes of 64-byte blocks execute the full Palermo ORAM
// protocol over the functional engine — real tree, stash, recursive
// position maps, AES-CTR sealing — and TrafficReport counts the DRAM
// traffic each would cost on the modeled hardware (Run and the experiment
// harness run the timing simulation).
//
//	st, _ := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 20, Shards: 4})
//	defer st.Close()
//	st.Write(42, payload)
//	data, _ := st.Read(42)
//	blocks, _ := st.ReadBatch([]uint64{1, 2, 3, 1}) // the two id-1 reads share one ORAM access
//
// The engine's leaf sequence is independent of the keys accessed, but the
// storage backend does not see it: a shard's backend is addressed by
// shard-local block id, one Get per read and one Put per write, so it
// observes the logical access pattern, and routing adds the id's residue
// mod Shards (DESIGN.md §6; ROADMAP item 2 moves payloads into tree
// slots).

import (
	"time"

	"palermo/internal/serve"
)

// MaxShards bounds ShardedStoreConfig.Shards: beyond a few thousand
// workers the per-shard trees are tiny and goroutine overhead dominates.
const MaxShards = 1024

// ShardedStoreConfig configures a sharded oblivious store.
type ShardedStoreConfig struct {
	Blocks uint64 // total capacity in 64-byte blocks (default 2^20 = 64 MB)
	Shards int    // independent ORAM shards (default 4)
	Key    []byte // AES key, 16/24/32 bytes (default: a fixed demo key)
	Seed   uint64 // base seed; each shard derives its own (default 1)

	// QueueDepth bounds each shard's request queue (in submissions);
	// a full queue blocks submitters (back-pressure). Default 256.
	QueueDepth int
	// AdmissionDeadline sheds overload: a request that waited in its shard
	// queue longer than this is dropped by the worker *before any engine
	// access* and fails with an error satisfying errors.Is(err, ErrRetry).
	// Because shed requests never reach the ORAM, shedding is invisible in
	// the §6 adversary's view. 0 (the default) disables shedding — queues
	// apply pure back-pressure and every admitted request executes.
	AdmissionDeadline time.Duration

	// Engine selects the storage engine: BackendMemory (default),
	// BackendWAL, or BackendBlockfile. The durable engines require Dir.
	Engine string
	// Dir is the durable store directory (durable engines only; each
	// shard owns a sub-directory). Reopening a populated Dir recovers the
	// persisted state; its manifest pins Blocks, Shards, and the engine,
	// so reopening with a different geometry fails instead of silently
	// mis-routing ids.
	Dir string
	// CheckpointEvery is the minimum per-shard writes between automatic
	// WAL-compaction checkpoints (default 4096; <0 disables periodic
	// checkpoints — Close still writes one). On populated stores
	// compaction is additionally deferred until the log tail reaches a
	// quarter of the shard's stored blocks, keeping snapshot I/O
	// amortized O(1) per write.
	CheckpointEvery int
	// GroupCommit is how many durable-log appends share one fsync (default
	// 32; 1 = synchronous durability per write). A crash loses at most
	// each shard's un-fsynced tail, counted in batches of up to
	// GroupCommit − 1 records plus the write vector that filled the batch
	// (WriteBatch reaches a shard's log in vectors of up to 128 records,
	// each appended and committed as a unit). The blockfile engine fsyncs
	// each batch before it acknowledges the write that filled it: one
	// batch. The WAL engine fsyncs on a committer goroutine and lets three
	// batches of acknowledged writes pile up behind a slow fsync before
	// writers wait — up to 3 × GroupCommit − 1 single-block writes (95 at
	// the default), more when vectors close the batches
	// (wal.Options.CommitDepth has the arithmetic).
	GroupCommit int
}

func (c *ShardedStoreConfig) defaults() {
	if c.Blocks == 0 {
		c.Blocks = 1 << 20
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Key == nil {
		c.Key = []byte("palermo-demo-key")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Engine == "" {
		c.Engine = BackendMemory
	}
}

// ShardedStore is a concurrent oblivious 64-byte-block store: a shard host
// (host.go) that owns every slot.
type ShardedStore struct {
	*host
}

// NewShardedStore builds the shards and starts their workers.
func NewShardedStore(cfg ShardedStoreConfig) (*ShardedStore, error) {
	h, err := newHost(cfg, false)
	if err != nil {
		return nil, err
	}
	for s := range h.slots {
		sl, err := h.openSlot(s)
		if err != nil {
			h.slots.close()
			return nil, err
		}
		h.adoptSlot(s, sl)
	}
	return &ShardedStore{host: h}, nil
}

// Blocks returns the total capacity in blocks.
func (s *ShardedStore) Blocks() uint64 { return s.router.Blocks() }

// Shards returns the shard count.
func (s *ShardedStore) Shards() int { return s.router.Shards() }

// Write stores a 64-byte block obliviously under the given block id. Safe
// for concurrent use; writes to the same id from different goroutines are
// serialized by the id's shard worker in arrival order.
func (s *ShardedStore) Write(id uint64, data []byte) error {
	_, err := await(s, serve.OpWrite, id, data)
	return err
}

// Read fetches a block obliviously. Reading a never-written block returns a
// zero block (the protocol performs the same path access either way, so
// existence is not observable).
func (s *ShardedStore) Read(id uint64) ([]byte, error) {
	return await(s, serve.OpRead, id, nil)
}

// ReadBatch fetches many blocks, submitting each shard's subset as one
// atomic batch: duplicate ids inside the call are served by a single ORAM
// access whose payload fans out to every position. Results are returned in
// input order; on error, the first failure is returned after every
// submitted request has completed.
func (s *ShardedStore) ReadBatch(ids []uint64) ([][]byte, error) {
	return awaitBatch(s, serve.OpRead, ids, nil)
}

// WriteBatch stores blocks[i] under ids[i] for every i, submitting each
// shard's subset as one atomic batch, which the shard applies in order and
// hands to its backend in vectors (DESIGN.md §9): the outcome is that of
// the same writes made one Write at a time. Ordering between entries
// targeting the same id follows their position in the call.
func (s *ShardedStore) WriteBatch(ids []uint64, blocks [][]byte) error {
	_, err := awaitBatch(s, serve.OpWrite, ids, blocks)
	return err
}

// ServiceStats is the service-layer snapshot ShardedStore.Stats returns:
// completed operations, dedup fan-out hits, and latency summaries.
type ServiceStats = serve.Stats

// LatencySummary is one operation class's latency condensation inside
// ServiceStats (count, mean, bucketed p50/p99 in microseconds).
type LatencySummary = serve.LatencySummary

// Stats returns the service-layer snapshot: completed operations, dedup
// fan-out hits, and latency percentiles. Safe to call at any time.
func (s *ShardedStore) Stats() ServiceStats { return s.slots.serviceStats(nil) }

// QueueDepths reports each shard's instantaneous request-queue occupancy
// (in queued submissions), keyed by shard. It is a point-in-time gauge for
// operability surfaces, not a synchronized snapshot.
func (s *ShardedStore) QueueDepths() map[int]int { return s.slots.queueDepths() }

// FsyncLag aggregates the durable backends' fsync telemetry: how many
// fsyncs the store has issued and the cumulative time spent waiting on
// them. Backends without fsync telemetry (the memory engine) contribute
// zero, so a memory store always reports (0, 0).
func (s *ShardedStore) FsyncLag() (count uint64, total time.Duration) { return s.slots.fsyncLag() }

// Snapshot returns Stats and Traffic together. It exists so in-process
// stores and remote Clients satisfy one observation interface
// (internal/loadgen.Target): a Client fetches both in a single wire op,
// and the error reports a lost connection — which an in-process store
// cannot experience, hence always nil here.
func (s *ShardedStore) Snapshot() (ServiceStats, TrafficReport, error) {
	return s.Stats(), s.Traffic(), nil
}

// Traffic aggregates the per-shard engine counters into one
// TrafficReport. Shard counters are snapshotted on each shard's own worker
// (via a queue barrier), so the report is consistent with every operation
// that completed before the call; after Close the counters are read
// directly.
func (s *ShardedStore) Traffic() TrafficReport { return s.slots.traffic() }

// EnableTraces starts recording every shard's operation/leaf trace (the
// attacker-visible path randomness each access exposes). Call before the
// store starts serving; the traces grow without bound, so this is a
// measurement/audit mode, not a production default.
func (s *ShardedStore) EnableTraces() { s.enableTraces() }

// LeafTrace is one shard's recorded serving trace for security analysis:
// the leaf each engine access exposed, and the shard's data-tree leaf
// count (the uniformity modulus).
type LeafTrace struct {
	Shard     int      `json:"shard"`
	NumLeaves uint64   `json:"num_leaves"`
	Leaves    []uint64 `json:"leaves"`
}

// LeafTraces snapshots every shard's recorded leaf trace (nil Leaves for
// shards without EnableTraces). Traces are copied on each shard's own
// worker goroutine, so the call is safe while the store is serving.
func (s *ShardedStore) LeafTraces() []LeafTrace { return s.slots.leafTraces() }

// Close stops accepting requests, drains everything already queued,
// flushes and checkpoints each shard's backend on its own worker — all
// shards concurrently — and waits for the workers to exit. Idempotent;
// operations submitted after Close return an error satisfying
// errors.Is(err, ErrClosed). With the WAL backend, a store reopened from
// the same Dir resumes exactly where Close left it — payloads, protocol
// state, and traffic counters.
func (s *ShardedStore) Close() error { return s.slots.close() }
