package shard

// The checkpoint plaintext (DESIGN.md §7, "Checkpoint contents"): what a
// shard seals into the blob a durable backend persists and a migration
// carries. One binary pass writes it straight from the live engine, and it
// is the only form this build reads.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"palermo/internal/codec"
	"palermo/internal/crypt"
	"palermo/internal/oram"
)

// stateMagic opens every checkpoint plaintext. Its first byte can never
// open a gob stream (a gob message length is one byte below 0x80 or a
// negated byte count of at most 8, 0xf8 and up), the form checkpoints took
// before this encoding, so neither form is misread as the other: a build
// that knows only gob refuses this one as undecodable, and this build
// refuses a plaintext without the magic (errNotBinary).
const stateMagic = "\x89PALCKPT"

// errNotBinary refuses a checkpoint plaintext that does not open with
// stateMagic. The builds it names read the gob form and write this one.
var errNotBinary = errors.New("shard: checkpoint is not in the binary format: wrong key, corrupt store, " +
	"or a checkpoint from before the binary format; to convert an old store, open and close it once " +
	"with any build from commit 741a3b8 through 5936097, whose Close writes the binary form")

// stateVersion is the binary layout's version, written after the magic.
const stateVersion = 1

// stateHeaderBytes is the shard's own part of the plaintext: magic,
// version, index and stride (uint32 each), then capacity, sealing epoch,
// reads, writes, both traffic counters and tree-top hits (uint64 each).
// The engine's encoding (oram.Ring.AppendState) follows.
const stateHeaderBytes = len(stateMagic) + 4 + 4 + 4 + 7*8

// appendState appends the checkpoint plaintext of the shard to dst, with
// sealEpoch as the sealing counter it records.
func (s *Shard) appendState(dst []byte, sealEpoch uint64) []byte {
	dst = append(dst, stateMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, stateVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.index))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.stride))
	for _, v := range [...]uint64{s.blocks, sealEpoch, s.reads, s.writes, s.trafficR, s.trafficW, s.topHitsBase + s.engine.TopHits()} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return s.engine.AppendState(dst)
}

// sealState reserves the blob's sealing epoch from the shard's own counter
// (so the state it records already covers the blob's IV and a restored
// sealer can never re-issue it), encodes the state into one buffer sized
// from the previous plaintext's length, and seals it in place: the blob
// checkpoint hands the backend and ExportMeta hands a migration. Nothing
// is kept; the backend does not retain the blob either.
func (s *Shard) sealState() ([]byte, uint64, error) {
	blobEpoch := s.sealer.Epoch() + 1
	if blobEpoch >= 1<<40 {
		return nil, 0, fmt.Errorf("shard: sealing counter %d exhausted the 40-bit IV field; re-key the store", blobEpoch)
	}
	s.sealer.SetEpoch(blobEpoch)
	buf := s.appendState(make([]byte, 0, s.stateLen+s.stateLen/16), blobEpoch)
	if len(buf) > crypt.MaxBlobBytes {
		return nil, 0, fmt.Errorf("shard: checkpoint state is %d bytes, beyond the %d-byte sealing span", len(buf), crypt.MaxBlobBytes)
	}
	s.stateLen = len(buf)
	s.sealer.BlobInPlace(s.metaAddr(), blobEpoch, buf)
	return buf, blobEpoch, nil
}

// loadState decodes an appendState plaintext into the shard. Every field
// is bounds-checked — a hostile plaintext is an error, never a panic — and
// the plaintext must end where the encoding does, so an accepted one
// re-encodes to the same bytes. A plaintext without the magic is
// errNotBinary. On error the shard must be discarded.
func (s *Shard) loadState(plain []byte) error {
	r := codec.NewReader(plain) // every decode failure below sticks to r
	if string(r.Bytes(len(stateMagic))) != stateMagic {
		return errNotBinary
	}
	if v := r.Uint32(); v != stateVersion {
		r.Failf("format version %d, this build reads %d", v, stateVersion)
	}
	index, stride := r.Uint32(), r.Uint32()
	blocks, sealEpoch := r.Uint64(), r.Uint64()
	reads, writes, trafficR, trafficW, topHits := r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()
	if r.Err() == nil {
		if err := s.checkOwner(uint64(index), uint64(stride), blocks); err != nil {
			return err
		}
		if sealEpoch >= 1<<40 {
			r.Failf("sealing counter %d beyond the 40-bit IV field", sealEpoch)
		}
	}
	if s.engine.LoadState(r) == nil && r.Len() != 0 {
		r.Failf("%d bytes after the state", r.Len())
	}
	if r.Err() != nil {
		return fmt.Errorf("shard: checkpoint undecodable (wrong key or corrupt store): %w", r.Err())
	}
	s.sealer.SetEpoch(sealEpoch)
	s.reads, s.writes = reads, writes
	s.trafficR, s.trafficW = trafficR, trafficW
	s.topHitsBase = topHits
	return nil
}

// checkOwner refuses a checkpoint written for other shard coordinates.
func (s *Shard) checkOwner(index, stride, blocks uint64) error {
	if index != uint64(s.index) || stride != uint64(s.stride) || blocks != s.blocks {
		return fmt.Errorf("shard: checkpoint is for shard %d/%d over %d blocks, opened as %d/%d over %d",
			index, stride, blocks, s.index, s.stride, s.blocks)
	}
	return nil
}

// MaxStateBytes bounds the checkpoint plaintext of a shard of blocks local
// blocks from the geometry and the format's field widths alone, whatever
// the shard has served. It refuses a capacity the format cannot describe.
func MaxStateBytes(blocks uint64) (uint64, error) {
	n, err := oram.MaxStateBytes(engineConfig(blocks, 1))
	return uint64(stateHeaderBytes) + n, err
}

// MaxSealableBlocks is the largest shard capacity whose checkpoint always
// fits one sealed blob (crypt.MaxBlobBytes), between 2^23 and 2^24
// blocks. Durable shards seal one at every checkpoint and migrating shards
// one at cutover, so the store constructors refuse larger durable or
// cluster shards up front instead of failing a write later.
func MaxSealableBlocks() uint64 { return maxSealableBlocks() }

var maxSealableBlocks = sync.OnceValue(func() uint64 {
	fits := func(blocks uint64) bool {
		n, err := MaxStateBytes(blocks)
		return err == nil && n <= crypt.MaxBlobBytes
	}
	lo, hi := uint64(1), uint64(1)<<40 // fits(lo); the bound only grows with blocks
	for lo < hi {
		if mid := lo + (hi-lo+1)/2; fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
})
