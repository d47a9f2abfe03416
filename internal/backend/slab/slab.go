// Package slab is the in-memory container of sealed blocks, the block
// store of the memory backend. It is the untrusted-storage counterpart of
// the engine's tables (internal/paged): a paged.Table from shard-local id
// to slot number, over a slab of chunks that hold ciphertext and epoch
// inline.
//
// A Get is the table lookup plus two dependent loads (chunk pointer,
// slot); a Put copies 64 bytes into place. A stored block costs its 72
// slot bytes plus 4 bytes of index — no map entry, no per-block heap
// object. Slots are handed out in first-touch order and never freed, and
// a chunk is allocated when its first slot is: 256 slots of 72 bytes is
// the Go allocator's 18432-byte size class exactly, so the slab wastes
// nothing to rounding.
package slab

import (
	"fmt"

	"palermo/internal/backend"
	"palermo/internal/crypt"
	"palermo/internal/paged"
)

const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
)

type slot struct {
	ct    [crypt.BlockBytes]byte
	epoch uint64
}

type chunk [chunkLen]slot

// Slab stores sealed blocks by shard-local id. Like the backend built on
// it, it is confined to one goroutine.
type Slab struct {
	index  paged.Table[uint32] // id -> slot number + 1
	chunks []*chunk
	n      uint32 // slots handed out
	limit  uint64 // ids are in [0, limit); beyond paged.DirectKeys the index is a map
}

// New returns an empty slab for ids in [0, capacity). The capacity decides
// the index's form exactly as it does for the engine's tables (paged.New:
// direct up to paged.DirectKeys ids, a map beyond). Zero means the caller
// does not know it: the index is direct and ids are bounded by
// paged.DirectKeys, so that no id can make it allocate a directory for a
// key space it was never meant to index.
func New(capacity uint64) *Slab {
	if capacity == 0 {
		capacity = paged.DirectKeys
	}
	return &Slab{index: paged.New[uint32](capacity), limit: capacity}
}

func (s *Slab) at(ref uint32) *slot {
	ref--
	return &s.chunks[ref>>chunkBits][ref&(chunkLen-1)]
}

// Check reports why sb cannot be stored under id: an id outside the
// capacity, or a ciphertext that is not one block. Backends that log a put
// before storing it validate with Check first, so that Put cannot fail
// after the record is written.
func (s *Slab) Check(id uint64, sb backend.Sealed) error {
	if len(sb.Ct) != crypt.BlockBytes {
		return fmt.Errorf("ciphertext must be %d bytes, got %d", crypt.BlockBytes, len(sb.Ct))
	}
	if id >= s.limit {
		return fmt.Errorf("block id %d outside capacity %d", id, s.limit)
	}
	return nil
}

// Put copies sb into id's slot, taking a new slot on first touch. The
// caller keeps ownership of sb.Ct.
func (s *Slab) Put(id uint64, sb backend.Sealed) error {
	if err := s.Check(id, sb); err != nil {
		return err
	}
	ref := s.index.Get(id)
	if ref == 0 {
		if s.n>>chunkBits == uint32(len(s.chunks)) {
			s.chunks = append(s.chunks, new(chunk))
		}
		s.n++
		ref = s.n
		s.index.Set(id, ref)
	}
	sl := s.at(ref)
	copy(sl.ct[:], sb.Ct)
	sl.epoch = sb.Epoch
	return nil
}

// Get returns the block stored under id. The ciphertext aliases the slot:
// it is valid until the next Put of the same id and must not be written.
func (s *Slab) Get(id uint64) (backend.Sealed, bool) {
	ref := s.index.Get(id)
	if ref == 0 {
		return backend.Sealed{}, false
	}
	sl := s.at(ref)
	return backend.Sealed{Ct: sl.ct[:], Epoch: sl.epoch}, true
}

// GetMany is Get for every ids[i] into out[i], ok[i].
func (s *Slab) GetMany(ids []uint64, out []backend.Sealed, ok []bool) {
	for i, id := range ids {
		out[i], ok[i] = s.Get(id)
	}
}

// Len returns the number of distinct ids stored.
func (s *Slab) Len() int { return int(s.n) }
