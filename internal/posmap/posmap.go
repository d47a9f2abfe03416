// Package posmap implements the hierarchical position-map structure of
// practical ORAM (§II-D of the paper): the leaf mapping for a 16 GB space is
// far too large for on-chip storage, so PosMap1 (tracking data blocks) is
// itself stored in a smaller ORAM, tracked by PosMap2, whose own map
// (PosMap3) finally fits on-chip.
//
// Functionally, the leaf assignments at every level live here; the protocol
// engines decide which tree accesses the *storage* of those assignments
// costs. Mappings are materialized lazily with uniformly random initial
// leaves, so full-scale spaces need memory proportional to the touched set:
// each level is a direct-indexed page table (internal/paged) holding
// leaf+1 under the block index, 0 meaning "not assigned yet" — the first
// touch draws the leaf, exactly where a map miss used to.
//
// Beside each level's leaves sits a table of the same form holding the
// values of the level's blocks, wherever they rest: a bucket and a stash
// entry hold only a block's id (internal/otree, internal/stash), so moving
// a block between tree and stash moves no value. A zero value is not
// stored, so the recursive levels, whose blocks carry none, cost nothing
// there.
package posmap

import (
	"encoding/binary"
	"fmt"

	"palermo/internal/codec"
	"palermo/internal/paged"
	"palermo/internal/rng"
)

// EntriesPerBlock is how many leaf entries one 64-byte posmap block holds
// (4-byte entries, as in the paper's 2 GB PosMap for a 16 GB space).
const EntriesPerBlock = 16

// Level names. Level 0 is the protected data space; levels 1..n-1 are
// posmap ORAMs; the final level is on-chip.
const (
	LevelData = 0
	LevelPos1 = 1
	LevelPos2 = 2
)

// Hierarchy tracks leaf assignments for the data space and every recursive
// posmap space, and the values of their blocks.
type Hierarchy struct {
	levels int                   // number of spaces with leaf assignments (incl. on-chip top)
	blocks []uint64              // logical block count per level
	leaves []uint64              // tree leaf count per level (set by Attach)
	maps   []paged.Table[uint32] // per level: block index -> leaf+1
	vals   []paged.Table[uint64] // per level: block index -> value
	r      *rng.Rand
}

// New creates a hierarchy for nDataBlocks logical data blocks with the given
// number of ORAM-resident posmap levels (the paper uses 2: PosMap1 and
// PosMap2, with PosMap3 on-chip). Level block counts shrink by
// EntriesPerBlock per level.
func New(nDataBlocks uint64, posLevels int, r *rng.Rand) *Hierarchy {
	if nDataBlocks == 0 || posLevels < 0 {
		panic(fmt.Sprintf("posmap: invalid sizing n=%d levels=%d", nDataBlocks, posLevels))
	}
	h := &Hierarchy{levels: posLevels + 1, r: r}
	n := nDataBlocks
	for l := 0; l <= posLevels; l++ {
		h.blocks = append(h.blocks, n)
		h.maps = append(h.maps, paged.New[uint32](n))
		h.vals = append(h.vals, paged.New[uint64](n))
		n = (n + EntriesPerBlock - 1) / EntriesPerBlock
	}
	h.leaves = make([]uint64, posLevels+1)
	return h
}

// Levels returns the number of spaces (data + ORAM posmap levels). The
// on-chip map is the assignment table of the deepest space and has no space
// of its own.
func (h *Hierarchy) Levels() int { return h.levels }

// Blocks returns the logical block count of level l.
func (h *Hierarchy) Blocks(l int) uint64 { return h.blocks[l] }

// Attach records the tree leaf count used for level l's assignments; must be
// called before Leaf/Remap for that level. Leaves are stored as 32-bit
// entries (the paper's 4-byte posmap entry).
func (h *Hierarchy) Attach(l int, numLeaves uint64) {
	h.leaves[l] = numLeaves
}

// Index returns the block index at posmap level l covering data block pa:
// pa / 16^l.
func (h *Hierarchy) Index(l int, pa uint64) uint64 {
	idx := pa
	for i := 0; i < l; i++ {
		idx /= EntriesPerBlock
	}
	return idx
}

// Leaf returns the current mapped leaf of block idx at level l,
// materializing a uniformly random assignment on first touch.
func (h *Hierarchy) Leaf(l int, idx uint64) uint64 {
	if idx >= h.blocks[l] {
		panic(fmt.Sprintf("posmap: level %d index %d out of range %d", l, idx, h.blocks[l]))
	}
	if v := h.maps[l].Get(idx); v != 0 {
		return uint64(v - 1)
	}
	return h.Remap(l, idx)
}

// Val returns the value stored for block idx of level l (SetVal), 0 if
// none.
func (h *Hierarchy) Val(l int, idx uint64) uint64 { return h.vals[l].Get(idx) }

// SetVal stores the value of block idx of level l.
func (h *Hierarchy) SetVal(l int, idx uint64, val uint64) { h.vals[l].Set(idx, val) }

// Remap assigns a fresh uniformly random leaf to block idx at level l and
// returns it (RingORAM remaps on every access).
func (h *Hierarchy) Remap(l int, idx uint64) uint64 {
	if h.leaves[l] == 0 {
		panic(fmt.Sprintf("posmap: level %d not attached", l))
	}
	leaf := uint32(h.r.Uint64n(h.leaves[l]))
	h.maps[l].Set(idx, leaf+1)
	return uint64(leaf)
}

// LeafRemap is Leaf then Remap — block idx's current leaf at level l,
// drawn on first touch, is returned and replaced by a fresh one — with the
// same draws in the same order, in one table lookup.
func (h *Hierarchy) LeafRemap(l int, idx uint64) uint64 {
	if idx >= h.blocks[l] {
		panic(fmt.Sprintf("posmap: level %d index %d out of range %d", l, idx, h.blocks[l]))
	}
	if h.leaves[l] == 0 {
		panic(fmt.Sprintf("posmap: level %d not attached", l))
	}
	leaf := uint32(h.r.Uint64n(h.leaves[l]))
	if old := h.maps[l].Swap(idx, leaf+1); old != 0 {
		return uint64(old - 1)
	}
	// First touch: the draw above was Leaf's; Remap draws the next one.
	h.maps[l].Set(idx, uint32(h.r.Uint64n(h.leaves[l]))+1)
	return uint64(leaf)
}

// SetLeaf forces a specific assignment (PrORAM maps a whole prefetch group
// to one leaf).
func (h *Hierarchy) SetLeaf(l int, idx uint64, leaf uint64) {
	h.maps[l].Set(idx, uint32(leaf)+1)
}

// StateEntryBytes is the width of one block's entry in AppendState's
// output: every level is written dense, one entry per block.
const StateEntryBytes = 4

// AppendState appends the checkpoint encoding of every level's leaf
// assignments to dst: level by level, Blocks(l) little-endian uint32s,
// each the block's leaf + 1, 0 for a block not assigned yet — exactly the
// value the level's table holds. Its length is a function of the geometry
// alone. The stored values are not written: the buckets and the stash
// holding their blocks write them (otree.Store.AppendState,
// stash.Stash.AppendState).
func (h *Hierarchy) AppendState(dst []byte) []byte {
	for l := range h.maps {
		off, n := len(dst), h.blocks[l]
		dst = append(dst, make([]byte, StateEntryBytes*n)...)
		out := dst[off:]
		h.maps[l].Range(func(i uint64, v uint32) {
			if i < n {
				binary.LittleEndian.PutUint32(out[StateEntryBytes*i:], v)
			}
		})
	}
	return dst
}

// LoadState replaces the leaf assignments with an AppendState encoding
// read from r, refusing a leaf outside its level's tree (Attach must have
// run), and clears the stored values (the stash's and the buckets'
// encodings restore them). On error the hierarchy is partly overwritten.
func (h *Hierarchy) LoadState(r *codec.Reader) error {
	for l := range h.maps {
		src := r.Bytes(StateEntryBytes * int(h.blocks[l]))
		if src == nil {
			return r.Failf("posmap level %d truncated", l)
		}
		h.maps[l].Reset()
		h.vals[l].Reset()
		for i := uint64(0); i < h.blocks[l]; i++ {
			v := binary.LittleEndian.Uint32(src[StateEntryBytes*i:])
			if uint64(v) > h.leaves[l] {
				return r.Failf("posmap level %d block %d maps to leaf %d of %d", l, i, v-1, h.leaves[l])
			}
			if v != 0 {
				h.maps[l].Set(i, v)
			}
		}
	}
	return nil
}
