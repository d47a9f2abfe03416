// Package otree implements the ORAM binary-tree substrate shared by every
// protocol in this repository: tree geometry (node addressing, path
// enumeration, physical DRAM layout), a bucket store with RingORAM-style
// per-node metadata whose buckets materialize on first touch behind a
// direct-indexed page table (internal/paged), and the on-chip tree-top cache
// model.
//
// Terminology follows the paper: the tree has depth D (root at level 0,
// leaves at level D); each node is a bucket of Z real-capacity slots plus at
// least S dummy slots; a block's position invariant is that it lies on the
// path from its mapped leaf to the root, or in the stash.
package otree

import (
	"fmt"
	"math/bits"
)

// BlockID identifies a logical block within one protected memory space.
// The dummy marker is ^BlockID(0).
type BlockID uint64

// Dummy is the reserved BlockID for dummy slots.
const Dummy = ^BlockID(0)

// BlockBytes is the cache-line block size.
const BlockBytes = 64

// LevelSpec gives the bucket shape at one tree level (fat-tree protocols use
// different shapes per level).
type LevelSpec struct {
	Z int // real-block capacity
	S int // guaranteed dummy slots
}

// Slots returns the physical slot count of a bucket at this level.
func (l LevelSpec) Slots() int { return l.Z + l.S }

// Geometry describes an ORAM tree's shape and physical layout. All DRAM
// addresses derived from a Geometry are contained in
// [Base, Base+Footprint()).
type Geometry struct {
	Depth     int         // leaves are at this level; levels = Depth+1
	Levels    []LevelSpec // len Depth+1, indexed by level
	Base      uint64      // physical byte address of bucket storage
	MetaBase  uint64      // physical byte address of node metadata (1 line/node)
	SlotLines int         // cache lines per slot (prefetch width; 1 normally)
	PackDepth int         // 0: level-major layout; k>0: aligned subtrees of k
	// levels stored contiguously so path segments share DRAM rows
	// (PageORAM's page-aware layout). Requires uniform bucket sizes.

	// levelByteBase[l] is the byte offset of level l's buckets from Base,
	// precomputed because fat trees have non-uniform bucket sizes.
	levelByteBase []uint64
}

// Uniform builds a geometry with identical Z and S at every level, sized to
// hold nBlocks logical blocks: the leaf count is the smallest power of two
// with nBlocks <= Z * leaves (the RingORAM provisioning rule, which keeps
// tree utilization at or below 50% counting non-leaf capacity).
func Uniform(nBlocks uint64, z, s int, base, metaBase uint64) Geometry {
	return UniformWide(nBlocks, z, s, 1, base, metaBase)
}

// UniformWide is Uniform with slotLines cache lines per slot: the prefetch
// configuration maps slotLines consecutive cache lines to one tree block, so
// every slot touch moves slotLines bursts (Palermo §V-C).
func UniformWide(nBlocks uint64, z, s, slotLines int, base, metaBase uint64) Geometry {
	if nBlocks == 0 || z <= 0 || s < 0 || slotLines <= 0 {
		panic(fmt.Sprintf("otree: invalid geometry nBlocks=%d Z=%d S=%d lines=%d", nBlocks, z, s, slotLines))
	}
	depth := 0
	for uint64(z)<<depth < nBlocks {
		depth++
	}
	specs := make([]LevelSpec, depth+1)
	for i := range specs {
		specs[i] = LevelSpec{Z: z, S: s}
	}
	return build(depth, specs, base, metaBase, slotLines)
}

// FatTree builds a LAORAM-style geometry where the root-level bucket has
// rootScale times the real capacity of the leaf level, tapering linearly
// toward the leaves. Dummy slots scale proportionally.
func FatTree(nBlocks uint64, z, s int, rootScale float64, base, metaBase uint64) Geometry {
	if rootScale < 1 {
		panic("otree: FatTree rootScale must be >= 1")
	}
	depth := 0
	for uint64(z)<<depth < nBlocks {
		depth++
	}
	specs := make([]LevelSpec, depth+1)
	for l := 0; l <= depth; l++ {
		// Linear taper: scale = rootScale at level 0, 1.0 at level depth.
		frac := 1.0
		if depth > 0 {
			frac = float64(depth-l) / float64(depth)
		}
		scale := 1 + (rootScale-1)*frac
		zz := int(float64(z)*scale + 0.5)
		ss := int(float64(s)*scale + 0.5)
		specs[l] = LevelSpec{Z: zz, S: ss}
	}
	return build(depth, specs, base, metaBase, 1)
}

// Custom builds a geometry from explicit per-level specs (IR-ORAM shrinks
// mid-tree buckets).
func Custom(specs []LevelSpec, base, metaBase uint64) Geometry {
	if len(specs) == 0 {
		panic("otree: Custom requires at least one level")
	}
	return build(len(specs)-1, specs, base, metaBase, 1)
}

func build(depth int, specs []LevelSpec, base, metaBase uint64, slotLines int) Geometry {
	g := Geometry{Depth: depth, Levels: specs, Base: base, MetaBase: metaBase, SlotLines: slotLines}
	g.levelByteBase = make([]uint64, depth+2)
	off := uint64(0)
	for l := 0; l <= depth; l++ {
		g.levelByteBase[l] = off
		off += (uint64(1) << l) * uint64(specs[l].Slots()*slotLines) * BlockBytes
	}
	g.levelByteBase[depth+1] = off
	return g
}

// WithBases returns a copy of g relocated to the given physical bases
// (geometries are sized first, then laid out disjointly; see oram.Layout).
func (g Geometry) WithBases(base, metaBase uint64) Geometry {
	g.Base = base
	g.MetaBase = metaBase
	return g
}

// NumLeaves returns the leaf count (2^Depth).
func (g *Geometry) NumLeaves() uint64 { return 1 << g.Depth }

// NumNodes returns the total node count (2^(Depth+1) - 1).
func (g *Geometry) NumNodes() uint64 { return (1 << (g.Depth + 1)) - 1 }

// Footprint returns the byte size of bucket storage.
func (g *Geometry) Footprint() uint64 { return g.levelByteBase[g.Depth+1] }

// NodeLevel returns the tree level of a node in heap numbering:
// floor(log2(node+1)).
func (g *Geometry) NodeLevel(node uint64) int { return bits.Len64(node+1) - 1 }

// NodeAt returns the node index at the given level along the path to leaf.
func (g *Geometry) NodeAt(leaf uint64, level int) uint64 {
	return (uint64(1) << level) - 1 + (leaf >> (g.Depth - level))
}

// PathNodes appends the nodes on the root→leaf path to dst and returns it.
func (g *Geometry) PathNodes(dst []uint64, leaf uint64) []uint64 {
	for l := 0; l <= g.Depth; l++ {
		dst = append(dst, g.NodeAt(leaf, l))
	}
	return dst
}

// Sibling returns the sibling of node (root is its own sibling).
func (g *Geometry) Sibling(node uint64) uint64 {
	if node == 0 {
		return 0
	}
	if node%2 == 1 { // left child
		return node + 1
	}
	return node - 1
}

// OnPath reports whether node lies on the path from leaf to the root.
func (g *Geometry) OnPath(leaf uint64, node uint64) bool {
	l := g.NodeLevel(node)
	return g.NodeAt(leaf, l) == node
}

// SlotAddr returns the physical DRAM address of the first cache line of
// slot i of node; a wide slot occupies SlotLines consecutive lines from it.
func (g *Geometry) SlotAddr(node uint64, slot int) uint64 {
	l := g.NodeLevel(node)
	idxInLevel := node - ((uint64(1) << l) - 1)
	if g.PackDepth > 0 {
		return g.Base + g.packedBucketIndex(l, idxInLevel)*
			uint64(g.Levels[0].Slots()*g.SlotLines)*BlockBytes +
			uint64(slot*g.SlotLines)*BlockBytes
	}
	return g.Base + g.levelByteBase[l] +
		idxInLevel*uint64(g.Levels[l].Slots()*g.SlotLines)*BlockBytes +
		uint64(slot*g.SlotLines)*BlockBytes
}

// packedBucketIndex linearizes (level, index) under the subtree-packed
// layout: levels are partitioned into bands of PackDepth levels; within a
// band, each aligned subtree's buckets are contiguous, so one path's
// traversal of the band touches one contiguous region (DRAM row locality).
func (g *Geometry) packedBucketIndex(level int, idxInLevel uint64) uint64 {
	k := g.PackDepth
	band := level / k
	bandLo := band * k
	bandLevels := k
	if bandLo+bandLevels > g.Depth+1 {
		bandLevels = g.Depth + 1 - bandLo
	}
	// Buckets before this band.
	bandBase := (uint64(1) << bandLo) - 1
	// Subtrees in this band are rooted at level bandLo.
	subtreeSize := (uint64(1) << bandLevels) - 1
	d := level - bandLo
	subtree := idxInLevel >> d
	posInSubtree := (uint64(1) << d) - 1 + (idxInLevel & ((uint64(1) << d) - 1))
	return bandBase + subtree*subtreeSize + posInSubtree
}

// MetaAddr returns the physical DRAM address of node's metadata line.
func (g *Geometry) MetaAddr(node uint64) uint64 {
	return g.MetaBase + node*BlockBytes
}

// BitRevCounter generates RingORAM's deterministic eviction-leaf sequence:
// successive counter values in bit-reversed order cover the leaves in the
// reverse-lexicographic pattern that balances evictions across subtrees.
type BitRevCounter struct {
	n     uint64
	depth int
}

// NewBitRevCounter creates a counter for a tree of the given depth.
func NewBitRevCounter(depth int) *BitRevCounter { return &BitRevCounter{depth: depth} }

// State returns the counter position for checkpointing.
func (c *BitRevCounter) State() uint64 { return c.n }

// Restore sets the counter position from a checkpoint.
func (c *BitRevCounter) Restore(n uint64) { c.n = n % (1 << c.depth) }

// Next returns the next eviction leaf.
func (c *BitRevCounter) Next() uint64 {
	v := c.n
	c.n = (c.n + 1) % (1 << c.depth)
	return reverseBits(v, c.depth)
}

func reverseBits(v uint64, bits int) uint64 {
	var r uint64
	for i := 0; i < bits; i++ {
		r = (r << 1) | (v & 1)
		v >>= 1
	}
	return r
}
