// Package stash implements the on-chip stash: the small trusted buffer that
// temporarily holds blocks streamed between the ORAM tree and the secure
// processor. A high-performance hardware stash must stay small (the paper
// argues 256 entries with overflow probability < 2^-103 for RingORAM); the
// implementation therefore tracks peak occupancy and reports overflow so
// protocols can trigger background evictions (PrORAM) or fail loudly.
//
// Storage is an insertion-ordered intrusive list over a slab (slice of
// slots + free list) with an open-addressed id index (block id -> slab
// slot) sized to the stash, never iterated, so eviction selection — and
// therefore every downstream simulation result — is deterministic for a
// given seed. The list layout keeps the eviction scans proportional to
// live occupancy: removed entries unlink in O(1) instead of leaving
// tombstones that later scans must skip. An eviction path sweeps the
// stash once for all of its buckets (EvictPath); a single bucket's push
// scans it once (EvictIntoNode).
package stash

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"palermo/internal/codec"
	"palermo/internal/otree"
)

// Entry is a stashed block: its identity and current mapped leaf. Its
// payload is kept by id outside the stash, as a tree-resident block's is
// (otree.Values), so moving a block between tree and stash moves no value.
// With prefetch, one tag covers a group of cache lines; the tag count is
// what bounds the hardware structure.
type Entry struct {
	ID   otree.BlockID
	Leaf uint64
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
	head, tail int   // live entries in insertion order
	free       int   // reusable slots
	index      index // block id -> slab slot
	live       int
	maxSeen    int
	samples    []int
	capacity   int // 0 = untracked; otherwise hardware tag budget
	overflow   uint64
}

// New creates an empty stash.
func New() *Stash {
	return &Stash{head: none, tail: none, free: none}
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
	c := s.index.cell(e.ID)
	if c.ref != 0 {
		s.slab[c.ref-1].e = e // replace in place, keeping insertion order
		return
	}
	s.add(c, e)
	if s.live > s.maxSeen {
		s.maxSeen = s.live
	}
	if s.capacity > 0 && s.live > s.capacity {
		s.overflow++
	}
}

// add appends e, whose id is absent and whose empty index cell is c, to
// the list; Put and EvictPath count it in the statistics.
func (s *Stash) add(c *cell, e Entry) {
	i := s.alloc()
	s.slab[i] = slot{e: e, prev: s.tail, next: none}
	if s.tail != none {
		s.slab[s.tail].next = i
	} else {
		s.head = i
	}
	s.tail = i
	*c = cell{id: e.ID, ref: uint32(i) + 1}
	s.index.n++
	s.live++
}

// Get returns the entry for id, if present.
func (s *Stash) Get(id otree.BlockID) (Entry, bool) {
	i, ok := s.index.get(id)
	if !ok {
		return Entry{}, false
	}
	return s.slab[i].e, true
}

// Contains reports whether id is stashed.
func (s *Stash) Contains(id otree.BlockID) bool {
	_, ok := s.index.get(id)
	return ok
}

// Remove deletes id, reporting whether it was present.
func (s *Stash) Remove(id otree.BlockID) bool {
	i, ok := s.index.remove(id)
	if !ok {
		return false
	}
	s.unlink(i)
	return true
}

// Remap updates the mapped leaf of a stashed block.
func (s *Stash) Remap(id otree.BlockID, leaf uint64) {
	i, ok := s.index.get(id)
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
// The selected ids are appended to dst[:0] and returned, so a caller that
// hands back the same buffer (the engine does: otree.Store.WriteBucket
// copies it into the bucket) evicts without allocating; dst may be nil.
func (s *Stash) EvictIntoNode(g *otree.Geometry, node uint64, max int, dst []otree.BlockID) []otree.BlockID {
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
			out = append(out, e.ID)
			s.index.remove(e.ID)
			s.unlink(i)
		}
		i = next
	}
	return out
}

// EvictPath fills the buckets of the path to leaf from the stash and from
// pulled, the blocks just pulled out of that path's buckets (in pull
// order, none of them stashed), and appends each level l's selection to
// fill[l][:0] (fill has Depth+1 entries). It selects exactly what
// EvictIntoNode would, called for every bucket from the deepest up after
// each pulled block was Put: each bucket takes, oldest first, up to its
// level's Z of the blocks left whose leaf's path runs through it. It does
// so in one sweep, by placing each block, oldest first, in the deepest
// bucket with room on both its own path and leaf's. Pulled blocks that
// find a bucket never enter the stash; the rest are appended in pull
// order. MaxSeen and Overflows count every pulled block as if it had
// been Put.
func (s *Stash) EvictPath(g *otree.Geometry, leaf uint64, pulled []Entry, fill [][]otree.BlockID) {
	var room uint64 // bit l: level l's bucket has room
	for l := 0; l <= g.Depth; l++ {
		fill[l] = fill[l][:0]
		if g.Levels[l].Z > 0 {
			room |= 1 << l
		}
	}
	if p := len(pulled); p > 0 {
		s.maxSeen = max(s.maxSeen, s.live+p)
		if s.capacity > 0 {
			s.overflow += uint64(max(0, min(p, s.live+p-s.capacity)))
		}
	}
	// place puts e in the deepest bucket with room among the levels its
	// path shares with leaf's (0 .. Depth − bits.Len64(e.Leaf^leaf)).
	place := func(e Entry) bool {
		shared := g.Depth - bits.Len64(e.Leaf^leaf)
		avail := room & (uint64(2)<<shared - 1)
		if avail == 0 {
			return false
		}
		l := bits.Len64(avail) - 1
		if fill[l] = append(fill[l], e.ID); len(fill[l]) == g.Levels[l].Z {
			room &^= 1 << l
		}
		return true
	}
	for i := s.head; i != none && room != 0; {
		next := s.slab[i].next
		if e := s.slab[i].e; place(e) {
			s.index.remove(e.ID)
			s.unlink(i)
		}
		i = next
	}
	for _, e := range pulled {
		if room == 0 || !place(e) {
			s.add(s.index.cell(e.ID), e)
		}
	}
}

// reset empties the stash; its statistics and configured capacity are kept.
func (s *Stash) reset() {
	s.slab = s.slab[:0]
	s.head, s.tail, s.free = none, none, none
	s.live = 0
	s.index.reset()
}

// Widths of AppendState's output: MaxSeen (uint32), Overflow (uint64) and
// the entry count (uint32), then per entry its id and leaf (uint32 each)
// and its value (uint64, from otree.Values).
const (
	StateFixedBytes = 4 + 8 + 4
	StateEntryBytes = 4 + 4 + 8
)

// AppendState appends the checkpoint encoding of the stash to dst: the
// statistics, then the live entries in insertion order (so restoring them
// reproduces the eviction-selection order exactly). Ids and leaves are
// written as uint32: the engine's checkpointable geometries stay far below
// 2^32 blocks (oram.MaxStateBytes). Each entry's value is read from vals.
func (s *Stash) AppendState(dst []byte, vals otree.Values) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.maxSeen))
	dst = binary.LittleEndian.AppendUint64(dst, s.overflow)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.live))
	for i := s.head; i != none; i = s.slab[i].next {
		e := &s.slab[i].e
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.ID))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Leaf))
		dst = binary.LittleEndian.AppendUint64(dst, vals.Val(e.ID))
	}
	return dst
}

// LoadState replaces the stash contents and statistics with an AppendState
// encoding read from r, storing each entry's value in vals, and refuses an
// id at or beyond blocks, a repeated id and a leaf at or beyond leaves. The
// configured capacity is kept. On error the stash is partly overwritten.
func (s *Stash) LoadState(r *codec.Reader, blocks, leaves uint64, vals otree.Values) error {
	maxSeen, overflow := r.Uint32(), r.Uint64()
	n := r.Count("stash entries", blocks, StateEntryBytes)
	if r.Err() != nil {
		return r.Err()
	}
	s.reset()
	for range n {
		e, val := Entry{ID: otree.BlockID(r.Uint32()), Leaf: uint64(r.Uint32())}, r.Uint64()
		switch {
		case uint64(e.ID) >= blocks:
			return r.Failf("stash entry for block %d of %d", e.ID, blocks)
		case e.Leaf >= leaves:
			return r.Failf("stash entry for block %d maps to leaf %d of %d", e.ID, e.Leaf, leaves)
		case s.Contains(e.ID):
			return r.Failf("stash holds block %d twice", e.ID)
		}
		s.Put(e)
		vals.SetVal(e.ID, val)
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

// index maps the id of every stashed block to its slab slot: open
// addressing with linear probing over a power-of-two table at most half
// full, doubled when an insert would pass that, with deletion by backward
// shift, so there are no tombstones and a lookup never scans past the
// cluster its id hashes into. Its size follows the stash's peak occupancy
// (a few hundred entries), not the block-id space; it never shrinks, so a
// stash that has reached its peak allocates nothing.
type index struct {
	cells []cell
	shift uint // 64 - log2(len(cells))
	n     int
}

// cell is one index slot; ref is the slab slot + 1, 0 for an empty cell.
type cell struct {
	id  otree.BlockID
	ref uint32
}

// minCells is the index's first size.
const minCells = 16

// home is id's first probe: a Fibonacci hash, the top bits of the
// product.
func (x *index) home(id otree.BlockID) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> x.shift)
}

// find returns the cell holding id, or the empty cell ending its probe
// sequence and false.
func (x *index) find(id otree.BlockID) (int, bool) {
	mask := len(x.cells) - 1
	for c := x.home(id); ; c = (c + 1) & mask {
		if x.cells[c].ref == 0 {
			return c, false
		}
		if x.cells[c].id == id {
			return c, true
		}
	}
}

// get returns the slab slot of id.
func (x *index) get(id otree.BlockID) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	c, ok := x.find(id)
	return int(x.cells[c].ref) - 1, ok
}

// cell returns id's cell, growing the table first if one more entry
// could pass half full: the cell holding id, or the empty one where an
// insert of id goes (the caller fills it and counts it in n).
func (x *index) cell(id otree.BlockID) *cell {
	if 2*(x.n+1) > len(x.cells) {
		x.grow()
	}
	c, _ := x.find(id)
	return &x.cells[c]
}

// grow doubles the table (or makes the first one) and reinserts every
// entry.
func (x *index) grow() {
	old := x.cells
	size := max(2*len(old), minCells)
	x.cells = make([]cell, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, c := range old {
		if c.ref != 0 {
			d, _ := x.find(c.id)
			x.cells[d] = c
		}
	}
}

// remove deletes id and returns the slab slot it had. The cells after it
// in its cluster move back over the gap when their home allows, so every
// entry stays reachable from its home without crossing an empty cell.
func (x *index) remove(id otree.BlockID) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	gap, ok := x.find(id)
	if !ok {
		return 0, false
	}
	slot := int(x.cells[gap].ref) - 1
	mask := len(x.cells) - 1
	for c := (gap + 1) & mask; x.cells[c].ref != 0; c = (c + 1) & mask {
		// The entry at c may fill the gap iff the gap lies on its probe
		// sequence: its distance from home is at least the gap's.
		if (c-x.home(x.cells[c].id))&mask >= (c-gap)&mask {
			x.cells[gap] = x.cells[c]
			gap = c
		}
	}
	x.cells[gap] = cell{}
	x.n--
	return slot, true
}

// reset empties the index, keeping its size.
func (x *index) reset() {
	clear(x.cells)
	x.n = 0
}
