package shard

// Live-migration primitives (DESIGN.md §11): a shard leaves its node as
// (1) a snapshot of every sealed block the backend stores, (2) a teed tail
// of the sealed writes that landed while the snapshot streamed, and (3) a
// sealed export of the exact controller metadata (ExportMeta — the
// checkpoint blob, returned instead of persisted). The receiving node
// rebuilds the shard with ImportBlocks + RestoreMeta: because the engine
// state is restored bit-exactly rather than re-derived by protocol replay,
// the migrated shard continues the SAME protocol history — leaf traces,
// counters, and sealing epochs pick up precisely where the source stopped,
// which is what lets the differential suite demand trace identity across a
// mid-sequence migration.
//
// Everything here is owner-goroutine-confined, like the rest of the shard:
// the cluster node calls these inside serve.Service.Sync closures.

import (
	"fmt"

	"palermo/internal/backend"
)

// SealedBlock is one sealed payload in migration transit: the shard-local
// id plus exactly what the untrusted backend stores — ciphertext and
// sealing epoch. Streaming these between nodes shows the receiver what the
// backend already holds (DESIGN.md §7), keyed by block id like every
// backend call (package backend; ROADMAP item 2).
type SealedBlock struct {
	Local uint64
	Epoch uint64
	Ct    []byte
}

// ExportBlocks snapshots every sealed block currently stored — migration
// phase 1, taken while the shard keeps serving. No write is ever left
// undelivered between operations (WriteMany delivers its last vector
// before it returns), so the snapshot holds every write served before the
// call; pair it with StartTee in the same Sync closure and the snapshot
// plus the tee cover the write stream exactly once. The stored blocks are
// collected by probing every local id (backends expose no iterator;
// capacities are small enough that a linear probe is cheap), and
// ciphertexts are copied: a Get result is the backend's own bytes, good
// only until the next call on the backend, and the shard keeps writing
// while the snapshot streams.
func (s *Shard) ExportBlocks() ([]SealedBlock, error) {
	if err := s.unusable(); err != nil {
		return nil, err
	}
	var out []SealedBlock
	for local := uint64(0); local < s.blocks; local++ {
		if sb, ok := s.be.Get(local); ok {
			out = append(out, SealedBlock{
				Local: local,
				Epoch: sb.Epoch,
				Ct:    append([]byte(nil), sb.Ct...),
			})
		}
	}
	return out, nil
}

// StartTee begins duplicating every subsequently sealed write into an
// owner-confined buffer, so the writes that land while the phase-1
// snapshot streams to the target are not lost. Call it in the same Sync
// closure as ExportBlocks; StopTee (under the cutover barrier) returns
// the buffered tail.
func (s *Shard) StartTee() {
	s.teeOn = true
	s.teeBuf = nil
}

// StopTee ends the tee and returns the sealed writes it captured, in
// arrival order (later entries supersede earlier ones for the same local,
// exactly like replaying the puts).
func (s *Shard) StopTee() []SealedBlock {
	buf := s.teeBuf
	s.teeOn = false
	s.teeBuf = nil
	return buf
}

// teeWrite records one sealed write while the tee is armed. The ciphertext
// is copied: ct is the shard's staging arena, which the next write reseals.
func (s *Shard) teeWrite(local uint64, ct []byte, epoch uint64) {
	if !s.teeOn {
		return
	}
	s.teeBuf = append(s.teeBuf, SealedBlock{Local: local, Epoch: epoch, Ct: append([]byte(nil), ct...)})
}

// ExportMeta seals and returns the shard's exact controller metadata — the
// checkpoint blob, handed to the caller instead of the backend. Call it
// quiesced (inside a Sync closure): the blob
// then describes the precise end of the shard's served history, and
// RestoreMeta on the receiving side continues that history bit-exactly.
// Like checkpoint's, the blob comes from sealState, which reserves its
// sealing epoch from the shard's own counter first, so a restored sealer
// can never re-issue its IV.
func (s *Shard) ExportMeta() ([]byte, uint64, error) { return s.sealState() }

// ImportBlocks loads a migrated shard's sealed payloads into the backend.
// Pre-serving only: call on a freshly built shard, followed by RestoreMeta
// (the payloads are meaningless until the engine metadata that indexes
// them is restored).
func (s *Shard) ImportBlocks(blocks []SealedBlock) error {
	for _, b := range blocks {
		if b.Local >= s.blocks {
			return fmt.Errorf("shard: imported block %d outside shard %d capacity %d", b.Local, s.index, s.blocks)
		}
		if err := s.be.Put(b.Local, backend.Sealed{Ct: b.Ct, Epoch: b.Epoch}); err != nil { // Put copies
			return fmt.Errorf("shard: import of block %d: %w", b.Local, err)
		}
	}
	return nil
}

// RestoreMeta restores a migrated shard's exact controller state from an
// ExportMeta blob: engine, sealer counter, and traffic counters, exactly
// the checkpoint-recovery path with no tail to replay. Pre-serving only.
func (s *Shard) RestoreMeta(meta []byte, metaEpoch uint64) error {
	return s.recover(meta, metaEpoch, nil)
}

// ForceCheckpoint persists a checkpoint now (durable backends; a no-op
// otherwise). The migration sink calls it right after RestoreMeta so the
// imported shard's first durable state is the migrated one — a crash
// before the first periodic checkpoint otherwise recovers the pre-import
// creation state.
func (s *Shard) ForceCheckpoint() error { return s.checkpoint() }

// Retire marks the shard surrendered by a completed migration: further
// checkpoints (including Close's farewell checkpoint) become no-ops. The
// new owner continues this shard's sealing-epoch domain from the exported
// counter, so a farewell checkpoint here would seal a second blob under
// the same (metaAddr, epoch) IV pair — AES-CTR IV reuse. A retired shard
// must serve no further operations (the node removes its slot first).
func (s *Shard) Retire() { s.retired = true }
