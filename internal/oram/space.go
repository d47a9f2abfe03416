package oram

import (
	"palermo/internal/otree"
	"palermo/internal/posmap"
	"palermo/internal/rng"
	"palermo/internal/stash"
)

// Space bundles the per-level state every tree-based protocol needs: the
// tree geometry and bucket store, the level's stash bank, its tree-top
// cache, and the deterministic eviction counter.
type Space struct {
	Level   int
	Geo     otree.Geometry
	Store   *otree.Store
	Stash   *stash.Stash
	Top     otree.TreeTop
	Evictor *otree.BitRevCounter

	Accesses uint64 // accesses to this space (drives the A-period eviction)

	// CountOnly elides DRAM address materialization: phases carry line
	// counts (Phase.NR/NW) instead of address lists. The serving engine
	// sets it — nothing there replays addresses — so the hot path skips
	// the per-access slice growth; the simulator keeps full plans.
	CountOnly bool

	// TopHits counts the 64-byte line movements the tree-top cache
	// absorbed (traffic the protocol generated against levels resident
	// on-chip/in the per-shard cache, which therefore never reached DRAM
	// or the backend). Bytes saved = 64 * TopHits.
	TopHits uint64

	pm *posmap.Hierarchy // the hierarchy holding this level's leaf assignments

	// Per-access scratch (engine-per-goroutine rule): the path's nodes and
	// buckets, the blocks a reset moves from the stash into one bucket, and
	// an eviction path's pulled blocks and per-level selections.
	pathBuf   []uint64
	bucketBuf []*otree.Bucket
	pushBuf   []otree.BlockID
	pulled    []stash.Entry
	fill      [][]otree.BlockID
}

// HardwareStashTags is the Table III per-level stash budget.
const HardwareStashTags = 256

// NewSpace builds hierarchy level `level` over the given geometry; pm holds
// the level's leaf assignments.
func NewSpace(level int, g otree.Geometry, treeTopBytes uint64, r *rng.Rand, pm *posmap.Hierarchy) *Space {
	st := stash.New()
	st.SetCapacity(HardwareStashTags)
	return &Space{
		Level:   level,
		Geo:     g,
		Store:   otree.NewStore(g, r),
		Stash:   st,
		Top:     otree.NewTreeTop(g, treeTopBytes),
		Evictor: otree.NewBitRevCounter(g.Depth),
		pm:      pm,
	}
}

// leafOf returns the current mapped leaf of a block of this level.
func (sp *Space) leafOf(id otree.BlockID) uint64 { return sp.pm.Leaf(sp.Level, uint64(id)) }

// Val implements otree.Values: the value of a block of this level, kept by
// the position map beside the block's leaf wherever the block rests (tree
// or stash), so moving a block moves only its id.
func (sp *Space) Val(id otree.BlockID) uint64 { return sp.pm.Val(sp.Level, uint64(id)) }

// SetVal implements otree.Values.
func (sp *Space) SetVal(id otree.BlockID, val uint64) { sp.pm.SetVal(sp.Level, uint64(id), val) }

// stashPulled moves the blocks whose ids a ResetPull or ReadSlot took out
// of the tree into the stash under their current leaves.
func (sp *Space) stashPulled(ids ...otree.BlockID) {
	for _, id := range ids {
		sp.Stash.Put(stash.Entry{ID: id, Leaf: sp.leafOf(id)})
	}
}

// serve finishes a path access at the stash, once the path's blocks are
// in it: block want (installed on first touch) takes its current leaf and,
// on a write, val. It returns the block's value before the access.
func (sp *Space) serve(want otree.BlockID, storeWrite bool, val uint64) uint64 {
	var got uint64
	stashed := sp.Stash.Contains(want)
	if stashed {
		got = sp.Val(want)
	}
	switch {
	case storeWrite:
		sp.SetVal(want, val)
	case !stashed:
		// Neither its path nor the stash held the block: it has no value
		// (its first touch), whatever the table says.
		sp.SetVal(want, 0)
	}
	sp.Stash.Put(stash.Entry{ID: want, Leaf: sp.leafOf(want)})
	return got
}

// pushInto moves up to z eligible stash blocks into node (the push half of
// a reset), reusing the space's buffer.
func (sp *Space) pushInto(node uint64, z int) {
	sp.pushBuf = sp.Stash.EvictIntoNode(&sp.Geo, node, z, sp.pushBuf)
	sp.Store.WriteBucket(node, sp.pushBuf)
}

// path fills the space's scratch path buffer for leaf (index = level).
func (sp *Space) path(leaf uint64) []uint64 {
	sp.pathBuf = sp.Geo.PathNodes(sp.pathBuf[:0], leaf)
	return sp.pathBuf
}

// buckets fills the space's scratch bucket buffer for path (index = level).
func (sp *Space) buckets(path []uint64) []*otree.Bucket {
	sp.bucketBuf = sp.Store.PathBuckets(sp.bucketBuf[:0], path)
	return sp.bucketBuf
}

// reserve sizes ph's address lists for a phase that touches perLevelR read
// and perLevelW write lines on every uncached level of a path, so an
// address-mode phase of known size is allocated once instead of grown.
func (sp *Space) reserve(ph *Phase, perLevelR, perLevelW int) {
	n := sp.Geo.Depth + 1 - sp.Top.Levels()
	if sp.CountOnly || n <= 0 {
		return
	}
	if perLevelR > 0 {
		ph.Reads = make([]uint64, 0, n*perLevelR)
	}
	if perLevelW > 0 {
		ph.Writes = make([]uint64, 0, n*perLevelW)
	}
}

// countPathReads accounts, in count-only mode, a read of lines cache lines
// from every node of a path by arithmetic: the tree-top levels are cache
// hits, the rest phase reads — what one emit call per node adds up to.
func (sp *Space) countPathReads(ph *Phase, lines int) {
	cached := min(sp.Top.Levels(), sp.Geo.Depth+1)
	sp.TopHits += uint64(cached * lines)
	ph.NR += (sp.Geo.Depth + 1 - cached) * lines
}

// emitSlotRead accounts, in address mode, one logical slot read of node at
// level lvl (SlotLines consecutive lines): tree-top-cached levels count as
// cache hits, the others append their DRAM addresses (count-only mode uses
// countPathReads).
func (sp *Space) emitSlotRead(ph *Phase, lvl int, node uint64, slot int) {
	lines := sp.Geo.SlotLines
	if sp.Top.Cached(lvl) {
		sp.TopHits += uint64(lines)
		return
	}
	base := sp.Geo.SlotAddr(node, slot)
	for k := 0; k < lines; k++ {
		ph.Reads = append(ph.Reads, base+uint64(k)*otree.BlockBytes)
	}
}

// emitBucketRead accounts slot reads of slots 0..slots-1 of node (the
// padded whole-bucket pulls of resets and evictions).
func (sp *Space) emitBucketRead(ph *Phase, lvl int, node uint64, slots int) {
	lines := slots * sp.Geo.SlotLines
	if sp.Top.Cached(lvl) {
		sp.TopHits += uint64(lines)
		return
	}
	if sp.CountOnly {
		ph.NR += lines
		return
	}
	for s := 0; s < slots; s++ {
		base := sp.Geo.SlotAddr(node, s)
		for k := 0; k < sp.Geo.SlotLines; k++ {
			ph.Reads = append(ph.Reads, base+uint64(k)*otree.BlockBytes)
		}
	}
}

// emitBucketWrite accounts slot writes of slots 0..slots-1 of node (the
// fresh re-encryption of a whole bucket on reset/eviction write-back).
func (sp *Space) emitBucketWrite(ph *Phase, lvl int, node uint64, slots int) {
	lines := slots * sp.Geo.SlotLines
	if sp.Top.Cached(lvl) {
		sp.TopHits += uint64(lines)
		return
	}
	if sp.CountOnly {
		ph.NW += lines
		return
	}
	for s := 0; s < slots; s++ {
		base := sp.Geo.SlotAddr(node, s)
		for k := 0; k < sp.Geo.SlotLines; k++ {
			ph.Writes = append(ph.Writes, base+uint64(k)*otree.BlockBytes)
		}
	}
}

// emitMetaRead accounts, in address mode, the node-metadata line read
// (count-only mode uses countPathReads).
func (sp *Space) emitMetaRead(ph *Phase, lvl int, node uint64) {
	if sp.Top.Cached(lvl) {
		sp.TopHits++
		return
	}
	ph.Reads = append(ph.Reads, sp.Geo.MetaAddr(node))
}

// emitMetaWrite accounts the node-metadata line rewrite.
func (sp *Space) emitMetaWrite(ph *Phase, lvl int, node uint64) {
	if sp.Top.Cached(lvl) {
		sp.TopHits++
		return
	}
	if sp.CountOnly {
		ph.NW++
		return
	}
	ph.Writes = append(ph.Writes, sp.Geo.MetaAddr(node))
}

// resetNode performs the functional half of ResetBucket (Algorithm 1 lines
// 42-50) on node, at level lvl of the path to leaf: pull the unused real
// blocks into the stash, push back eligible stash blocks, and emit the
// padded DRAM traffic (Z slot reads, full-bucket writes).
func (sp *Space) resetNode(ph *Phase, lvl int, node uint64) {
	spec := sp.Geo.Levels[lvl]

	sp.stashPulled(sp.Store.ResetPull(node)...)
	sp.pushInto(node, spec.Z)

	// Pull traffic is padded to Z slots for obliviousness; push traffic
	// rewrites the whole bucket with fresh encryption.
	sp.emitBucketRead(ph, lvl, node, spec.Z)
	sp.emitBucketWrite(ph, lvl, node, spec.Slots())
	sp.emitMetaWrite(ph, lvl, node) // metadata reset
}

// evictPath performs EvictPath (Algorithm 1 lines 35-40): pull every bucket
// on the deterministic eviction leaf's path, then push back deepest-first
// so blocks settle as low as possible (pulling the whole path before
// pushing is what lets tree-top residents migrate toward leaves). One
// stash sweep selects every bucket's blocks (stash.EvictPath), and a
// pulled block that goes straight back into the path never enters the
// stash.
func (sp *Space) evictPath(ph *Phase) uint64 {
	g := sp.Evictor.Next()
	spec, lines := sp.Geo.Levels[0], sp.Geo.SlotLines // Ring trees are uniform
	sp.reserve(ph, spec.Z*lines, spec.Slots()*lines+1)
	sp.pulled = sp.pulled[:0]
	for l := 0; l <= sp.Geo.Depth; l++ {
		node := sp.Geo.NodeAt(g, l)
		for _, id := range sp.Store.ResetPull(node) {
			sp.pulled = append(sp.pulled, stash.Entry{ID: id, Leaf: sp.leafOf(id)})
		}
		sp.emitBucketRead(ph, l, node, sp.Geo.Levels[l].Z)
	}
	for len(sp.fill) <= sp.Geo.Depth {
		sp.fill = append(sp.fill, nil)
	}
	sp.Stash.EvictPath(&sp.Geo, g, sp.pulled, sp.fill)
	for l := sp.Geo.Depth; l >= 0; l-- {
		node := sp.Geo.NodeAt(g, l)
		sp.Store.WriteBucket(node, sp.fill[l])
		sp.emitBucketWrite(ph, l, node, sp.Geo.Levels[l].Slots())
		sp.emitMetaWrite(ph, l, node)
	}
	return g
}

// Layout assigns disjoint physical regions to a set of geometries: bucket
// storage regions first, then metadata regions, each rounded up to a DRAM
// row multiple so trees never share rows.
func Layout(geos []otree.Geometry, rowBytes uint64) []otree.Geometry {
	out := make([]otree.Geometry, len(geos))
	next := uint64(0)
	align := func(v uint64) uint64 {
		if rowBytes == 0 {
			return v
		}
		return (v + rowBytes - 1) / rowBytes * rowBytes
	}
	bases := make([]uint64, len(geos))
	for i, g := range geos {
		bases[i] = next
		next = align(next + g.Footprint())
	}
	for i, g := range geos {
		metaBase := next
		next = align(next + g.NumNodes()*otree.BlockBytes)
		out[i] = g.WithBases(bases[i], metaBase)
	}
	return out
}
