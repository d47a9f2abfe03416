package oram

import (
	"fmt"

	"palermo/internal/otree"
	"palermo/internal/posmap"
	"palermo/internal/rng"
	"palermo/internal/stash"
)

func stashEntry(e otree.BlockEntry, leaf uint64) stash.Entry {
	return stash.Entry{ID: e.ID, Leaf: leaf, Val: e.Val}
}

func stashEntryNew(id otree.BlockID, leaf uint64) stash.Entry {
	return stash.Entry{ID: id, Leaf: leaf}
}

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
	return nil
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
	cfg    PathConfig
	r      *rng.Rand
	pm     *posmap.Hierarchy
	spaces []*Space
	reqID  uint64

	lastDataLeaf uint64          // leaf exposed by the most recent level-0 access
	pendGroup    []otree.BlockID // group members to prefetch during the access
}

// NewPath builds the engine.
func NewPath(cfg PathConfig) (*Path, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	dataBlocks := (cfg.NLines + uint64(cfg.DataSlotLines) - 1) / uint64(cfg.DataSlotLines)
	pm := posmap.New(dataBlocks, cfg.PosLevels, r)

	geos := make([]otree.Geometry, pm.Levels())
	for l := 0; l < pm.Levels(); l++ {
		lines := 1
		if l == 0 {
			lines = cfg.DataSlotLines
		}
		switch {
		case l == 0 && cfg.FatRootScale > 1:
			geos[l] = otree.FatTree(pm.Blocks(l), cfg.Z, 0, cfg.FatRootScale, 0, 0)
		case l == 0 && cfg.MidShrink > 0:
			geos[l] = midShrunkGeometry(pm.Blocks(l), cfg.Z, cfg.MidShrink)
		default:
			geos[l] = otree.UniformWide(pm.Blocks(l), cfg.Z, 0, lines, 0, 0)
			geos[l].PackDepth = cfg.PackDepth
		}
	}
	geos = Layout(geos, cfg.AlignBytes)

	e := &Path{cfg: cfg, r: r, pm: pm}
	for l, g := range geos {
		pm.Attach(l, g.NumLeaves())
		e.spaces = append(e.spaces, NewSpace(l, g, cfg.TreeTopBytes, r, pm))
	}
	return e, nil
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

// Space exposes a level's state.
func (e *Path) Space(level int) *Space { return e.spaces[level] }

// Posmap exposes the hierarchy.
func (e *Path) Posmap() *posmap.Hierarchy { return e.pm }

// Levels implements Engine.
func (e *Path) Levels() int { return len(e.spaces) }

// StashLen implements Engine.
func (e *Path) StashLen(level int) int { return e.spaces[level].Stash.Len() }

// StashMax implements Engine.
func (e *Path) StashMax(level int) int { return e.spaces[level].Stash.MaxSeen() }

// SampleStashes implements Engine.
func (e *Path) SampleStashes() {
	for _, sp := range e.spaces {
		sp.Stash.Sample()
	}
}

// StashSamples implements Engine.
func (e *Path) StashSamples(level int) []int { return e.spaces[level].Stash.Samples() }

// StashOverflows implements Engine.
func (e *Path) StashOverflows(level int) uint64 { return e.spaces[level].Stash.Overflows() }

// ResetPeaks implements Engine.
func (e *Path) ResetPeaks() {
	for _, sp := range e.spaces {
		sp.Stash.ResetPeak()
	}
}

// GroupIndex returns the data-space block index serving cache line pa.
func (e *Path) GroupIndex(pa uint64) uint64 { return pa / uint64(e.cfg.DataSlotLines) }

// Access implements Engine.
func (e *Path) Access(pa uint64, write bool, val uint64) *Plan {
	if pa >= e.cfg.NLines {
		panic(fmt.Sprintf("oram: PA %d outside protected space of %d lines", pa, e.cfg.NLines))
	}
	e.reqID++
	plan := &Plan{ReqID: e.reqID, PA: pa, Write: write, Levels: make([]LevelAccess, len(e.spaces))}
	groupIdx := pa / uint64(e.cfg.DataSlotLines)
	for l := len(e.spaces) - 1; l >= 0; l-- {
		idx := e.pm.Index(l, groupIdx)
		if l == 0 {
			plan.FromStash = e.spaces[0].Stash.Contains(otree.BlockID(idx))
		}
		la, got := e.accessLevel(l, idx, l == 0 && write, val)
		plan.Levels[l] = la
		if l == 0 {
			plan.Val = got
		}
	}
	plan.DataLeaf = e.lastDataLeaf
	e.fillStashAfter(plan)
	return plan
}

// AccessBypass performs a data-level-only access: the recursive posmap
// lookups are skipped because the block's position is tracked on-chip
// (IR-ORAM's tree-top PosMap bypass). Posmap levels appear in the plan as
// empty accesses.
func (e *Path) AccessBypass(pa uint64, write bool, val uint64) *Plan {
	if pa >= e.cfg.NLines {
		panic(fmt.Sprintf("oram: PA %d outside protected space of %d lines", pa, e.cfg.NLines))
	}
	e.reqID++
	plan := &Plan{ReqID: e.reqID, PA: pa, Write: write, Levels: make([]LevelAccess, len(e.spaces))}
	groupIdx := pa / uint64(e.cfg.DataSlotLines)
	for l := 1; l < len(e.spaces); l++ {
		plan.Levels[l] = LevelAccess{Level: l}
	}
	plan.FromStash = e.spaces[0].Stash.Contains(otree.BlockID(groupIdx))
	la, got := e.accessLevel(0, groupIdx, write, val)
	plan.Levels[0] = la
	plan.Val = got
	plan.DataLeaf = e.lastDataLeaf
	e.fillStashAfter(plan)
	return plan
}

// DummyAccess implements Engine: read-and-write a fresh uniform path at
// every level without serving a block. PrORAM injects these as background
// evictions; their write-back half is what drains the stash.
func (e *Path) DummyAccess() *Plan {
	e.reqID++
	plan := &Plan{ReqID: e.reqID, Dummy: true, Levels: make([]LevelAccess, len(e.spaces))}
	for l := len(e.spaces) - 1; l >= 0; l-- {
		leaf := e.r.Uint64n(e.spaces[l].Geo.NumLeaves())
		la, _ := e.accessLevelLeaf(l, otree.Dummy, leaf, false, 0)
		plan.Levels[l] = la
	}
	plan.DataLeaf = e.lastDataLeaf
	e.fillStashAfter(plan)
	return plan
}

func (e *Path) fillStashAfter(plan *Plan) {
	plan.StashAfter = make([]int, len(e.spaces))
	for l, sp := range e.spaces {
		plan.StashAfter[l] = sp.Stash.Len()
	}
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

func (e *Path) accessLevel(l int, idx uint64, storeWrite bool, val uint64) (LevelAccess, uint64) {
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
	return e.accessLevelLeaf(l, otree.BlockID(idx), leaf, storeWrite, val)
}

// accessLevelLeaf is one PathORAM access: pull every block on the path into
// the stash, serve the request, then push the path back greedily from the
// leaf up.
func (e *Path) accessLevelLeaf(l int, want otree.BlockID, leaf uint64, storeWrite bool, val uint64) (LevelAccess, uint64) {
	if l == 0 {
		e.lastDataLeaf = leaf
	}
	sp := e.spaces[l]
	sp.Accesses++
	la := LevelAccess{Level: l, Phases: make([]Phase, 0, 2)} // RP, WB
	path := sp.path(leaf)

	// RP: read every slot of every bucket on the path (plus siblings for
	// PageORAM) into the stash.
	rp := Phase{Kind: PhaseRP}
	pull := func(n uint64) {
		lvl := sp.Geo.NodeLevel(n)
		sp.stashPulled(sp.Store.ResetPull(n))
		sp.emitBucketRead(&rp, lvl, n, sp.Geo.Levels[lvl].Z)
	}
	for _, n := range path {
		pull(n)
		if e.cfg.SiblingReads && n != 0 {
			pull(sp.Geo.Sibling(n))
		}
	}
	var got uint64
	if want != otree.Dummy {
		if se, ok := sp.Stash.Get(want); ok {
			got = se.Val
		} else {
			sp.Stash.Put(stashEntryNew(want, e.pm.Leaf(l, uint64(want))))
		}
		sp.Stash.Remap(want, e.pm.Leaf(l, uint64(want)))
		if storeWrite {
			se, _ := sp.Stash.Get(want)
			se.Val = val
			sp.Stash.Put(se)
		}
	}
	if l == 0 && len(e.pendGroup) > 0 {
		for _, id := range e.pendGroup {
			if !sp.Stash.Contains(id) {
				sp.Stash.Put(stashEntryNew(id, e.pm.Leaf(0, uint64(id))))
			} else {
				sp.Stash.Remap(id, e.pm.Leaf(0, uint64(id)))
			}
		}
		e.pendGroup = e.pendGroup[:0]
	}
	la.Phases = append(la.Phases, rp)

	// WB: write the same path (and pulled siblings) back, deepest first.
	wb := Phase{Kind: PhaseWB}
	writeBack := func(n uint64) {
		lvl := sp.Geo.NodeLevel(n)
		sp.pushInto(n, sp.Geo.Levels[lvl].Z)
		sp.emitBucketWrite(&wb, lvl, n, sp.Geo.Levels[lvl].Z)
	}
	for i := len(path) - 1; i >= 0; i-- {
		writeBack(path[i])
		if e.cfg.SiblingReads && path[i] != 0 {
			writeBack(sp.Geo.Sibling(path[i]))
		}
	}
	la.Phases = append(la.Phases, wb)
	return la, got
}
