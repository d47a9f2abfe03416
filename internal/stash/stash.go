// Package stash implements the on-chip stash: the small trusted buffer that
// temporarily holds blocks streamed between the ORAM tree and the secure
// processor. A high-performance hardware stash must stay small (the paper
// argues 256 entries with overflow probability < 2^-103 for RingORAM); the
// implementation therefore tracks peak occupancy and reports overflow so
// protocols can trigger background evictions (PrORAM) or fail loudly.
//
// Storage is an insertion-ordered intrusive list over a slab (slice of
// slots + free list) with a direct-indexed id table (internal/paged: block
// id -> slab slot + 1), never map-iterated, so eviction selection — and
// therefore every downstream simulation result — is deterministic for a
// given seed. The list layout keeps the per-bucket
// eviction scan (EvictIntoNode, called once per bucket per eviction path on
// every access) proportional to live occupancy: removed entries unlink in
// O(1) instead of leaving tombstones that later scans must skip.
package stash

import (
	"encoding/binary"
	"fmt"

	"palermo/internal/codec"
	"palermo/internal/otree"
	"palermo/internal/paged"
)

// Entry is a stashed block: its identity, current mapped leaf, and payload.
// With prefetch, one tag covers a group of cache lines; the tag count is
// what bounds the hardware structure.
type Entry struct {
	ID   otree.BlockID
	Leaf uint64
	Val  uint64
}

// none is the nil slot index for the intrusive list.
const none = -1

// slot is one slab cell: an entry threaded into either the insertion-order
// list (live) or the free list (dead, next only).
type slot struct {
	e          Entry
	prev, next int
}

// Stash holds blocks between tree pulls and pushes.
type Stash struct {
	slab       []slot
	head, tail int         // live entries in insertion order
	free       int         // reusable slots
	index      paged.Table // block id -> slab slot + 1
	live       int
	maxSeen    int
	samples    []int
	capacity   int // 0 = untracked; otherwise hardware tag budget
	overflow   uint64
}

// New creates an empty stash for block ids below blocks.
func New(blocks uint64) *Stash {
	return &Stash{head: none, tail: none, free: none, index: paged.New(blocks)}
}

// lookup returns the slab slot holding id.
func (s *Stash) lookup(id otree.BlockID) (int, bool) {
	ref := s.index.Get(uint64(id))
	return int(ref) - 1, ref != 0
}

// SetCapacity declares the hardware tag budget (256 in Table III). The
// stash keeps functioning past it — RingORAM's guarantee is probabilistic
// — but every Put that lands above capacity is counted, so a design whose
// protocol breaks the bound (e.g. PrORAM without background evictions)
// fails loudly in tests instead of silently assuming bigger silicon.
func (s *Stash) SetCapacity(n int) { s.capacity = n }

// Overflows returns how many insertions exceeded the declared capacity.
func (s *Stash) Overflows() uint64 { return s.overflow }

// Len returns the current tag occupancy.
func (s *Stash) Len() int { return s.live }

// MaxSeen returns the peak occupancy observed since creation (or ResetPeak).
func (s *Stash) MaxSeen() int { return s.maxSeen }

// ResetPeak clears the peak-occupancy tracker (warmup boundary).
func (s *Stash) ResetPeak() { s.maxSeen = s.live }

// alloc takes a slot from the free list, growing the slab if needed.
func (s *Stash) alloc() int {
	if s.free != none {
		i := s.free
		s.free = s.slab[i].next
		return i
	}
	s.slab = append(s.slab, slot{})
	return len(s.slab) - 1
}

// unlink removes slot i from the live list and pushes it onto the free list.
func (s *Stash) unlink(i int) {
	sl := &s.slab[i]
	if sl.prev != none {
		s.slab[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next != none {
		s.slab[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
	sl.e = Entry{}
	sl.next = s.free
	s.free = i
	s.live--
}

// Put inserts or replaces a block.
func (s *Stash) Put(e Entry) {
	if e.ID == otree.Dummy {
		panic("stash: Put of dummy block")
	}
	if i, ok := s.lookup(e.ID); ok {
		s.slab[i].e = e // replace in place, keeping insertion order
		return
	}
	i := s.alloc()
	s.slab[i] = slot{e: e, prev: s.tail, next: none}
	if s.tail != none {
		s.slab[s.tail].next = i
	} else {
		s.head = i
	}
	s.tail = i
	s.index.Set(uint64(e.ID), uint32(i)+1)
	s.live++
	if s.live > s.maxSeen {
		s.maxSeen = s.live
	}
	if s.capacity > 0 && s.live > s.capacity {
		s.overflow++
	}
}

// Get returns the entry for id, if present.
func (s *Stash) Get(id otree.BlockID) (Entry, bool) {
	i, ok := s.lookup(id)
	if !ok {
		return Entry{}, false
	}
	return s.slab[i].e, true
}

// Contains reports whether id is stashed.
func (s *Stash) Contains(id otree.BlockID) bool {
	return s.index.Get(uint64(id)) != 0
}

// Remove deletes id, reporting whether it was present.
func (s *Stash) Remove(id otree.BlockID) bool {
	i, ok := s.lookup(id)
	if !ok {
		return false
	}
	s.index.Set(uint64(id), 0)
	s.unlink(i)
	return true
}

// Remap updates the mapped leaf of a stashed block.
func (s *Stash) Remap(id otree.BlockID, leaf uint64) {
	i, ok := s.lookup(id)
	if !ok {
		panic(fmt.Sprintf("stash: Remap of absent block %d", id))
	}
	s.slab[i].e.Leaf = leaf
}

// EvictIntoNode selects up to max blocks eligible for the bucket node — a
// block is eligible if node lies on its mapped leaf's path — removes them
// from the stash, and returns them. Selection is oldest-first, which is
// deterministic. This is the push half of ResetBucket/EvictPath; PageORAM
// also uses it for sibling buckets that are not on the accessed path. The
// scan walks only live entries; selected entries unlink in O(1).
// The selection is appended to dst[:0] and returned, so a caller that hands
// back the same buffer (the engine does: otree.Store.WriteBucket copies it
// into the bucket) evicts without allocating; dst may be nil.
func (s *Stash) EvictIntoNode(g otree.Geometry, node uint64, max int, dst []otree.BlockEntry) []otree.BlockEntry {
	out := dst[:0]
	if max <= 0 || s.live == 0 {
		return out
	}
	level := g.NodeLevel(node)
	prefix := node - ((uint64(1) << level) - 1)
	shift := uint(g.Depth - level)
	for i := s.head; i != none && len(out) < max; {
		next := s.slab[i].next
		if e := s.slab[i].e; (e.Leaf >> shift) == prefix {
			out = append(out, otree.BlockEntry{ID: e.ID, Val: e.Val})
			s.index.Set(uint64(e.ID), 0)
			s.unlink(i)
		}
		i = next
	}
	return out
}

// reset empties the stash; its statistics and configured capacity are kept.
func (s *Stash) reset() {
	s.slab = s.slab[:0]
	s.head, s.tail, s.free = none, none, none
	s.live = 0
	s.index.Reset()
}

// Widths of AppendState's output: MaxSeen (uint32), Overflow (uint64) and
// the entry count (uint32), then per entry its id and leaf (uint32 each)
// and its value (uint64).
const (
	StateFixedBytes = 4 + 8 + 4
	StateEntryBytes = 4 + 4 + 8
)

// AppendState appends the checkpoint encoding of the stash to dst: the
// statistics, then the live entries in insertion order (so restoring them
// reproduces the eviction-selection order exactly). Ids and leaves are
// written as uint32: the engine's checkpointable geometries stay far below
// 2^32 blocks (oram.MaxStateBytes).
func (s *Stash) AppendState(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.maxSeen))
	dst = binary.LittleEndian.AppendUint64(dst, s.overflow)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.live))
	for i := s.head; i != none; i = s.slab[i].next {
		e := &s.slab[i].e
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.ID))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Leaf))
		dst = binary.LittleEndian.AppendUint64(dst, e.Val)
	}
	return dst
}

// LoadState replaces the stash contents and statistics with an AppendState
// encoding read from r, refusing an id at or beyond blocks, a repeated id
// and a leaf at or beyond leaves. The configured capacity is kept. On error
// the stash is partly overwritten.
func (s *Stash) LoadState(r *codec.Reader, blocks, leaves uint64) error {
	maxSeen, overflow := r.Uint32(), r.Uint64()
	n := r.Count("stash entries", blocks, StateEntryBytes)
	if r.Err() != nil {
		return r.Err()
	}
	s.reset()
	for range n {
		e := Entry{ID: otree.BlockID(r.Uint32()), Leaf: uint64(r.Uint32()), Val: r.Uint64()}
		switch {
		case uint64(e.ID) >= blocks:
			return r.Failf("stash entry for block %d of %d", e.ID, blocks)
		case e.Leaf >= leaves:
			return r.Failf("stash entry for block %d maps to leaf %d of %d", e.ID, e.Leaf, leaves)
		case s.Contains(e.ID):
			return r.Failf("stash holds block %d twice", e.ID)
		}
		s.Put(e)
	}
	s.maxSeen, s.overflow = int(maxSeen), overflow
	return nil
}

// Sample records the current occupancy for stash-over-time plots (Fig 12).
func (s *Stash) Sample() { s.samples = append(s.samples, s.live) }

// Samples returns recorded occupancy samples.
func (s *Stash) Samples() []int { return s.samples }

// ForEach iterates over all entries in insertion order.
func (s *Stash) ForEach(fn func(Entry)) {
	for i := s.head; i != none; i = s.slab[i].next {
		fn(s.slab[i].e)
	}
}
