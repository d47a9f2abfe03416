package oram

import (
	"fmt"

	"palermo/internal/otree"
)

// PathConfig parameterizes the PathORAM engine.
type PathConfig struct {
	NLines        uint64
	Z             int // bucket capacity (PathORAM has no dummy budget; S=0)
	PosLevels     int
	TreeTopBytes  uint64
	DataSlotLines int
	AlignBytes    uint64
	Seed          uint64

	// GroupLeafLines forces consecutive groups of this many cache lines to
	// share a mapped leaf (the PrORAM prefetch strategy, §III-B). 1 = the
	// original independent-uniform mapping. Unlike DataSlotLines, the tree
	// block stays one line wide — the group's blocks are distinct tree
	// blocks pinned to one path, which is what pressures the stash.
	GroupLeafLines int

	// FatRootScale > 1 builds the LAORAM fat tree (bigger buckets near the
	// root) to relieve that stash pressure.
	FatRootScale float64

	// MidShrink, if non-zero, shrinks buckets in the middle third of the
	// tree to this Z (IR-ORAM's bucket-size reduction).
	MidShrink int

	// SiblingReads adds the sibling bucket of every path node to the read
	// phase (PageORAM's sibling access, which rides row-buffer locality).
	SiblingReads bool

	// PackDepth, when > 0, stores aligned subtrees of that many levels
	// contiguously (PageORAM's DRAM-page-aware layout).
	PackDepth int
}

// Validate fills defaults and checks invariants.
func (c *PathConfig) Validate() error {
	if c.NLines == 0 {
		return fmt.Errorf("oram: NLines must be > 0")
	}
	if c.Z <= 0 {
		return fmt.Errorf("oram: Z must be positive")
	}
	if c.DataSlotLines == 0 {
		c.DataSlotLines = 1
	}
	if c.GroupLeafLines == 0 {
		c.GroupLeafLines = 1
	}
	if c.AlignBytes == 0 {
		c.AlignBytes = 32 << 10
	}
	if c.FatRootScale == 0 {
		c.FatRootScale = 1
	}
	return checkLevelBlocks(c.NLines, c.DataSlotLines)
}

// DefaultPathConfig is classic PathORAM (Z=4) on the Table III space.
func DefaultPathConfig() PathConfig {
	return PathConfig{
		NLines:       1 << 28,
		Z:            4,
		PosLevels:    2,
		TreeTopBytes: 256 << 10,
		Seed:         1,
	}
}

// Path is the PathORAM functional engine: every access reads the whole
// mapped path into the stash and immediately writes the same path back.
type Path struct {
	hierarchy
	cfg PathConfig

	pendGroup []otree.BlockID // group members to prefetch during the access
}

// NewPath builds the engine.
func NewPath(cfg PathConfig) (*Path, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Path{cfg: cfg}
	e.hierarchy = newHierarchy(e, cfg.NLines, cfg.DataSlotLines, cfg.PosLevels, cfg.Seed,
		cfg.levelGeometry, cfg.AlignBytes, cfg.TreeTopBytes, false)
	return e, nil
}

// levelGeometry is the (unplaced) tree of hierarchy level l over blocks:
// the data tree takes the fat-root or mid-shrunk shape when configured.
func (c *PathConfig) levelGeometry(l int, blocks uint64) otree.Geometry {
	switch {
	case l == 0 && c.FatRootScale > 1:
		return otree.FatTree(blocks, c.Z, 0, c.FatRootScale, 0, 0)
	case l == 0 && c.MidShrink > 0:
		return midShrunkGeometry(blocks, c.Z, c.MidShrink)
	}
	lines := 1
	if l == 0 {
		lines = c.DataSlotLines
	}
	g := otree.UniformWide(blocks, c.Z, 0, lines, 0, 0)
	g.PackDepth = c.PackDepth
	return g
}

// midShrunkGeometry builds IR-ORAM's data tree: buckets in the middle third
// of levels shrink to zMid.
func midShrunkGeometry(nBlocks uint64, z, zMid int) otree.Geometry {
	depth := 0
	for uint64(z)<<depth < nBlocks {
		depth++
	}
	specs := make([]otree.LevelSpec, depth+1)
	lo, hi := depth/3, 2*depth/3
	for l := 0; l <= depth; l++ {
		zz := z
		if l >= lo && l < hi {
			zz = zMid
		}
		specs[l] = otree.LevelSpec{Z: zz, S: 0}
	}
	return otree.Custom(specs, 0, 0)
}

// Config returns the engine configuration (defaults filled).
func (e *Path) Config() PathConfig { return e.cfg }

// GroupIndex returns the data-space block index serving cache line pa.
func (e *Path) GroupIndex(pa uint64) uint64 { return pa / uint64(e.cfg.DataSlotLines) }

// AccessBypass performs a data-level-only access: the recursive posmap
// lookups are skipped because the block's position is tracked on-chip
// (IR-ORAM's tree-top PosMap bypass). Posmap levels appear in the plan as
// empty accesses.
func (e *Path) AccessBypass(pa uint64, write bool, val uint64) *Plan {
	return e.access(pa, write, val, true)
}

// remapLevel assigns the block's next leaf. With group-leaf prefetching the
// whole group moves to one fresh leaf together (PrORAM's forced mapping);
// otherwise leaves are independent and uniform (the PathORAM proof's
// premise).
func (e *Path) remapLevel(l int, idx uint64) {
	if l == 0 && e.cfg.GroupLeafLines > 1 {
		group := uint64(e.cfg.GroupLeafLines) / uint64(e.cfg.DataSlotLines)
		if group <= 1 {
			e.pm.Remap(l, idx)
			return
		}
		leaf := e.r.Uint64n(e.spaces[l].Geo.NumLeaves())
		base := idx / group * group
		for i := uint64(0); i < group && base+i < e.pm.Blocks(l); i++ {
			e.pm.SetLeaf(l, base+i, leaf)
		}
		return
	}
	e.pm.Remap(l, idx)
}

// accessLevel implements levelProtocol: remap, then one PathORAM access
// along the block's old leaf.
func (e *Path) accessLevel(la *LevelAccess, l int, idx uint64, storeWrite bool, val uint64) uint64 {
	leaf := e.pm.Leaf(l, idx)
	e.remapLevel(l, idx)
	if l == 0 && e.cfg.GroupLeafLines > 1 {
		// PrORAM: the single path read prefetches the whole group into the
		// stash (and on to the LLC). The group members now carry the shared
		// fresh leaf and sit in the stash until eviction finds buckets on
		// that one path — the contention that produces the paper's stash
		// pressure (§III-B, Fig 4).
		group := uint64(e.cfg.GroupLeafLines) / uint64(e.cfg.DataSlotLines)
		if group > 1 {
			base := idx / group * group
			for i := uint64(0); i < group && base+i < e.pm.Blocks(0); i++ {
				e.pendGroup = append(e.pendGroup, otree.BlockID(base+i))
			}
		}
	}
	return e.accessLevelLeaf(la, l, otree.BlockID(idx), leaf, storeWrite, val)
}

// accessLevelLeaf implements levelProtocol with one PathORAM access: pull
// every block on the path into the stash, serve the request, then push the
// path back greedily from the leaf up.
func (e *Path) accessLevelLeaf(la *LevelAccess, l int, want otree.BlockID, leaf uint64, storeWrite bool, val uint64) uint64 {
	sp := e.enter(l, leaf)
	la.begin(l, false, 2) // RP, WB
	path := sp.path(leaf)

	// Each uncached level moves at most the widest bucket (a fat root's),
	// twice with its sibling: the address lists are sized for that once.
	perLevel := max(e.cfg.Z, sp.Geo.Levels[0].Z) * sp.Geo.SlotLines
	if e.cfg.SiblingReads {
		perLevel *= 2
	}

	// RP: read every slot of every bucket on the path (plus siblings for
	// PageORAM) into the stash.
	rp := la.beginPhase(PhaseRP)
	sp.reserve(rp, perLevel, 0)
	pull := func(n uint64) {
		lvl := sp.Geo.NodeLevel(n)
		sp.stashPulled(sp.Store.ResetPull(n)...)
		sp.emitBucketRead(rp, lvl, n, sp.Geo.Levels[lvl].Z)
	}
	for _, n := range path {
		pull(n)
		if e.cfg.SiblingReads && n != 0 {
			pull(sp.Geo.Sibling(n))
		}
	}
	var got uint64
	if want != otree.Dummy {
		got = sp.serve(want, storeWrite, val)
	}
	if l == 0 && len(e.pendGroup) > 0 {
		for _, id := range e.pendGroup {
			sp.serve(id, false, 0)
		}
		e.pendGroup = e.pendGroup[:0]
	}

	// WB: write the same path (and pulled siblings) back, deepest first.
	wb := la.beginPhase(PhaseWB)
	sp.reserve(wb, 0, perLevel)
	writeBack := func(n uint64) {
		lvl := sp.Geo.NodeLevel(n)
		sp.pushInto(n, sp.Geo.Levels[lvl].Z)
		sp.emitBucketWrite(wb, lvl, n, sp.Geo.Levels[lvl].Z)
	}
	for i := len(path) - 1; i >= 0; i-- {
		writeBack(path[i])
		if e.cfg.SiblingReads && path[i] != 0 {
			writeBack(sp.Geo.Sibling(path[i]))
		}
	}
	return got
}
