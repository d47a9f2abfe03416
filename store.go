package palermo

// The store's shared vocabulary: the block size and capacity limits, the
// storage engine selectors, and the DRAM traffic report that ShardedStore,
// ClusterNode and Client return.

import (
	"palermo/internal/backend/durable"
	"palermo/internal/shard"
)

// BlockSize is the store's block granularity.
const BlockSize = shard.BlockBytes

// MaxBlocks is the largest capacity NewShardedStore and NewClusterNode
// accept (2^40 blocks = 64 TB). Beyond it, tree-depth arithmetic in the
// engine layer would overflow; the constructors reject it eagerly. One
// shard holds at most 2^32-2 of them, whatever the engine: its ORAM
// buckets store block ids in 32 bits (oram.MaxLevelBlocks), so a larger
// capacity needs more Shards. Durable and cluster shards are capped far
// lower, by the sealed checkpoint (shard.MaxSealableBlocks).
const MaxBlocks = 1 << 40

// Block-state backend selectors for ShardedStoreConfig.Engine.
const (
	// BackendMemory keeps sealed blocks in process-private maps — the
	// default, byte-identical to the store's historical behavior. State
	// evaporates on process exit.
	BackendMemory = "memory"
	// BackendWAL persists sealed blocks to Dir through a CRC-framed
	// append-only log with group-committed fsync plus compacted metadata
	// snapshots. A store reopened from the same Dir (and Key) resumes
	// exactly where Close left it; a crash loses at most the un-fsynced
	// group-commit tail. DESIGN.md §7 describes the format. The log holds
	// the (id, ciphertext, epoch) view the backend's calls already show,
	// which today includes the logical access pattern (ROADMAP item 2).
	BackendWAL = "wal"
	// BackendBlockfile persists sealed blocks to Dir as fixed 512-byte
	// slots in a paged block file read and written through the OS page
	// cache, with an append-only log carrying only tiny metadata records,
	// each written after its slot is synced. Same §7
	// crash-recovery discipline as BackendWAL — torn slots are discarded
	// whole under covering epoch reservations, wrong-key reopens are
	// rejected — but checkpoint compaction is O(metadata) instead of
	// O(stored blocks) and block state lives on disk, not in a map.
	// DESIGN.md §12.
	BackendBlockfile = "blockfile"
)

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
	// Deprecated: the benchmark still reads them; delete with ROADMAP
	// item 5(a).
	PrefetchIssued, PrefetchUsed, PrefetchStale uint64

	// SlotCacheHits and SlotCacheMisses are always zero.
	//
	// Deprecated: the benchmark still reads them and
	// testdata/durable_golden.json serialises them; delete with ROADMAP
	// item 5(a).
	SlotCacheHits, SlotCacheMisses uint64
}

// add folds o's counters into r and recomputes the amplification factor
// over the combined operations; StashPeak is the larger high-water mark.
func (r *TrafficReport) add(o TrafficReport) {
	r.Reads += o.Reads
	r.Writes += o.Writes
	r.DRAMReads += o.DRAMReads
	r.DRAMWrites += o.DRAMWrites
	r.TreeTopHits += o.TreeTopHits
	r.StashPeak = max(r.StashPeak, o.StashPeak)
	r.AmplificationFactor = 0
	if ops := r.Reads + r.Writes; ops > 0 {
		r.AmplificationFactor = float64(r.DRAMReads+r.DRAMWrites) / float64(ops)
	}
}
