// Package memory is the default block-state backend: sealed blocks held in
// process memory (one slab, package slab) behind the backend interface. It
// answers exactly as the map it replaced did (the shard determinism and
// replay tests enforce this) and evaporates on process exit.
package memory

import (
	"fmt"

	"palermo/internal/backend"
	"palermo/internal/backend/slab"
)

// Backend holds sealed blocks in a slab. It forwards only the backend
// methods, so the slab's Reset, which only the WAL calls, is not one of
// its own.
type Backend struct {
	s *slab.Slab
}

// New creates an empty in-memory backend for a caller that does not know
// its capacity (slab.New(0): ids below paged.DirectKeys).
func New() *Backend { return NewSized(0) }

// NewSized creates an empty in-memory backend for ids in [0, blocks).
func NewSized(blocks uint64) *Backend { return &Backend{slab.New(blocks)} }

// Put implements backend.Backend.
func (b *Backend) Put(local uint64, sb backend.Sealed) error {
	if err := b.s.Put(local, sb); err != nil {
		return fmt.Errorf("memory: %w", err)
	}
	return nil
}

// PutMany implements backend.VectorBackend: the vector lands in order,
// whole or (on a refused member, checked before any is stored) not at all.
func (b *Backend) PutMany(ops []backend.PutOp) error {
	for _, op := range ops {
		if err := b.s.Check(op.Local, op.Sb); err != nil {
			return fmt.Errorf("memory: %w", err)
		}
	}
	for _, op := range ops {
		b.s.Put(op.Local, op.Sb) // checked above
	}
	return nil
}

// Get implements backend.Backend: the block aliases its slot (slab.Get).
func (b *Backend) Get(local uint64) (backend.Sealed, bool) { return b.s.Get(local) }

// GetMany implements backend.VectorBackend.
func (b *Backend) GetMany(locals []uint64, out []backend.Sealed, ok []bool) {
	b.s.GetMany(locals, out, ok)
}

// Len implements backend.Backend.
func (b *Backend) Len() int { return b.s.Len() }

// Durable implements backend.Backend: memory never survives exit.
func (b *Backend) Durable() bool { return false }

// Checkpoint implements backend.Backend as a no-op (there is no stable
// storage to compact; shards skip metadata encoding when !Durable).
func (b *Backend) Checkpoint(meta []byte, metaEpoch uint64) error { return nil }

// Recovered implements backend.Backend: a fresh slab never recovers state.
func (b *Backend) Recovered() ([]byte, uint64, []backend.TailOp) { return nil, 0, nil }

// Flush implements backend.Backend as a no-op.
func (b *Backend) Flush() error { return nil }

// Close implements backend.Backend as a no-op.
func (b *Backend) Close() error { return nil }
