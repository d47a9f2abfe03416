package palermo

// Store is the adoption-facing API: an oblivious block store that a
// downstream user can call like a small key-value device. Reads and writes
// of 64-byte blocks execute the full Palermo ORAM protocol over the
// functional engine — real tree, stash, recursive position maps, AES-CTR
// sealing — so the sequence of tree paths a storage backend would observe
// is computationally independent of the keys accessed.
//
//	st, _ := palermo.NewStore(palermo.StoreConfig{Blocks: 1 << 20})
//	st.Write(42, payload)       // payload: 64 bytes
//	data, _ := st.Read(42)
//
// The Store tracks the traffic each operation would cost on the modeled
// hardware (TrafficReport), but does not run the timing simulation; use
// Run/the experiment harness for performance studies. For concurrent
// callers and capacity scaling, see ShardedStore.

import (
	"fmt"

	"palermo/internal/backend/durable"
	"palermo/internal/shard"
)

// BlockSize is the store's block granularity.
const BlockSize = shard.BlockBytes

// MaxBlocks is the largest capacity NewStore/NewShardedStore accept
// (2^40 blocks = 64 TB). Beyond it, tree-depth arithmetic in the engine
// layer would overflow; the constructors reject it eagerly instead.
const MaxBlocks = 1 << 40

// validateStoreParams rejects configurations that would otherwise fail
// deep inside oram.NewRing (or not fail at all and overflow), with a
// clear palermo:-prefixed error. Called after defaults are applied.
func validateStoreParams(blocks uint64, key []byte) error {
	if blocks == 0 {
		return fmt.Errorf("palermo: Blocks must be > 0")
	}
	if blocks > MaxBlocks {
		return fmt.Errorf("palermo: Blocks %d exceeds the maximum capacity of %d blocks", blocks, uint64(MaxBlocks))
	}
	switch len(key) {
	case 16, 24, 32:
		return nil
	default:
		return fmt.Errorf("palermo: Key must be 16, 24, or 32 bytes (AES-128/192/256), got %d", len(key))
	}
}

// Block-state backend selectors for StoreConfig/ShardedStoreConfig.
const (
	// BackendMemory keeps sealed blocks in process-private maps — the
	// default, byte-identical to the store's historical behavior. State
	// evaporates on process exit.
	BackendMemory = "memory"
	// BackendWAL persists sealed blocks to Dir through a CRC-framed
	// append-only log with group-committed fsync plus compacted metadata
	// snapshots. A store reopened from the same Dir (and Key) resumes
	// exactly where Close left it; a crash loses at most the un-fsynced
	// group-commit tail. DESIGN.md §7 describes the format and why the
	// persisted view leaks nothing beyond what §VI's untrusted storage
	// already observes.
	BackendWAL = "wal"
	// BackendBlockfile persists sealed blocks to Dir as fixed 512-byte
	// slots in a paged block file (direct I/O where available), with an
	// append-only log carrying only tiny metadata records. Same §7
	// crash-recovery discipline as BackendWAL — torn slots are discarded
	// whole under covering epoch reservations, wrong-key reopens are
	// rejected — but checkpoint compaction is O(metadata) instead of
	// O(stored blocks) and block state lives on disk, not in a map.
	// DESIGN.md §12.
	BackendBlockfile = "blockfile"
)

// StoreConfig configures an oblivious store.
type StoreConfig struct {
	Blocks uint64 // capacity in 64-byte blocks (default 2^20 = 64 MB)
	Key    []byte // AES key, 16/24/32 bytes (default: a fixed demo key)
	Seed   uint64 // leaf-selection seed (default 1)

	// Engine selects the storage engine: BackendMemory (default),
	// BackendWAL, or BackendBlockfile. The durable engines require Dir.
	Engine string
	// Dir is the durable store directory (durable engines only). Reopening a
	// populated Dir recovers the persisted state; the directory's manifest
	// pins Blocks (and shard count) so a mismatched reopen fails loudly.
	Dir string
	// CheckpointEvery is the minimum writes between automatic
	// WAL-compaction checkpoints (default 4096; <0 disables periodic
	// checkpoints — Close still writes one). On populated stores
	// compaction is additionally deferred until the log tail reaches a
	// quarter of the stored blocks, keeping snapshot I/O amortized O(1)
	// per write.
	CheckpointEvery int
	// GroupCommit is how many durable-log appends share one fsync (default
	// 32; 1 = synchronous durability per write). A crash loses at most the
	// un-fsynced tail, counted in batches of up to GroupCommit − 1 records
	// plus the write vector that filled the batch (a ShardedStore's
	// WriteBatch reaches a shard's log in vectors of up to 128 records,
	// each appended and committed as a unit). The blockfile engine fsyncs
	// each batch before it acknowledges the write that filled it: one
	// batch. The WAL engine fsyncs on a committer goroutine and lets three
	// batches of acknowledged writes pile up behind a slow fsync before
	// writers wait — up to 3 × GroupCommit − 1 single-block writes (95 at
	// the default), more when vectors close the batches
	// (wal.Options.CommitDepth has the arithmetic).
	GroupCommit int
}

// DetectEngine reports the storage engine recorded in dir's manifest,
// defaulting to BackendWAL when the directory has no readable manifest
// yet (matching the historical meaning of "a durable directory"). Tools
// reopening an existing store use it so the operator never has to
// restate the engine the directory was created with.
func DetectEngine(dir string) string {
	if m, err := durable.ReadManifest(dir); err == nil {
		return m.Engine
	}
	return BackendWAL
}

// Store is an oblivious 64-byte-block store: the 1-shard special case of
// the service layer's partition (the shard seals under global ids, which
// coincide with block ids at stride 1, and uses Seed unchanged). It is one
// tuned shard-host slot with no worker — the single caller is the worker.
type Store struct {
	h        *host
	sh       *shard.Shard
	closed   bool
	closeErr error // first Close outcome, re-returned on later calls
}

// NewStore builds a store. Invalid configurations (zero or overflowing
// capacity after defaulting, bad key lengths, backend/Dir mismatches) are
// rejected here rather than surfacing as a deep engine failure. With a
// durable Engine, a populated Dir is recovered: checkpointed state
// restores exactly and any post-checkpoint log tail is replayed.
func NewStore(cfg StoreConfig) (*Store, error) {
	h, err := newHost(ShardedStoreConfig{
		Blocks: cfg.Blocks, Shards: 1, Key: cfg.Key, Seed: cfg.Seed,
		Engine: cfg.Engine, Dir: cfg.Dir,
		CheckpointEvery: cfg.CheckpointEvery, GroupCommit: cfg.GroupCommit,
	}, false)
	if err != nil {
		return nil, err
	}
	sl, err := h.openSlot(0, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	h.tune(sl.sh)
	h.slots[0] = sl
	return &Store{h: h, sh: sl.sh}, nil
}

// Blocks returns the capacity in blocks.
func (s *Store) Blocks() uint64 { return s.h.router.Blocks() }

// Write stores a 64-byte block obliviously under the given block id.
func (s *Store) Write(id uint64, data []byte) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.h.checkID(id); err != nil {
		return err
	}
	if err := checkBlock(data); err != nil {
		return err
	}
	return s.sh.Write(id, data)
}

// Read fetches a block obliviously. Reading a never-written block returns
// a zero block (the protocol performs the same path access either way, so
// existence is not observable).
func (s *Store) Read(id uint64) ([]byte, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.h.checkID(id); err != nil {
		return nil, err
	}
	return s.sh.Read(id)
}

// Close flushes and checkpoints a durable backend and releases it; a
// memory-backed store just marks itself closed. Operations after Close
// return ErrClosed. Idempotent: every call reports the first Close's
// outcome, so a failed checkpoint is never silently swallowed by a retry.
func (s *Store) Close() error {
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	s.closeErr = s.sh.Close()
	return s.closeErr
}

// TrafficReport summarizes the DRAM cost the operations so far would incur.
type TrafficReport struct {
	Reads, Writes       uint64 // store operations
	DRAMReads           uint64 // 64-byte line reads the protocol generated
	DRAMWrites          uint64
	AmplificationFactor float64 // DRAM lines moved per operation
	StashPeak           int

	// TreeTopHits counts protocol line movements the resident tree-top
	// cache absorbed — traffic that never reached DRAM/the backend. The
	// protocol's total line cost is DRAMReads + DRAMWrites + TreeTopHits
	// (bytes saved = 64 * TreeTopHits); AmplificationFactor counts only
	// the lines actually moved.
	TreeTopHits uint64

	// PrefetchIssued, PrefetchUsed and PrefetchStale are always zero.
	//
	// Deprecated: the benchmark still reads them; delete with the ROADMAP
	// item 1 benchmark PR.
	PrefetchIssued, PrefetchUsed, PrefetchStale uint64

	// SlotCacheHits and SlotCacheMisses are always zero.
	//
	// Deprecated: the benchmark still reads them and
	// testdata/durable_golden.json serialises them; delete with the
	// ROADMAP item 1 benchmark PR.
	SlotCacheHits, SlotCacheMisses uint64
}

// Traffic returns the accumulated report.
func (s *Store) Traffic() TrafficReport { return s.h.slots.traffic() }
