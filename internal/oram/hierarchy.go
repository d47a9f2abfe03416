package oram

import (
	"fmt"

	"palermo/internal/otree"
	"palermo/internal/posmap"
	"palermo/internal/rng"
)

// hierarchy is the recursive position-map hierarchy every protocol runs
// over — the data, PosMap1 and PosMap2 trees of Table III — shared by Path
// and Ring (DESIGN.md §4.1): the seeded RNG, the position map, one Space
// per level, the request counter, the plan lifecycle and the top-down walk
// of an access. An engine embeds it and supplies only its per-tree
// protocol.
type hierarchy struct {
	r      *rng.Rand
	pm     *posmap.Hierarchy
	spaces []*Space
	proto  levelProtocol

	nLines    uint64 // protected cache lines
	slotLines uint64 // cache lines per data-tree block
	countOnly bool   // plans carry counts and are reused (RingConfig.CountTraffic)

	reqID        uint64
	lastDataLeaf uint64 // leaf exposed by the most recent level-0 access

	reused Plan // count-only mode: the plan every access refills
}

// levelProtocol is an engine's per-tree protocol. Both methods fill la
// (reusing its phase storage when the plan is reused) and return the
// served block's value.
type levelProtocol interface {
	// accessLevel remaps block idx of level l and accesses the path it
	// exposes.
	accessLevel(la *LevelAccess, l int, idx uint64, storeWrite bool, val uint64) uint64
	// accessLevelLeaf accesses the path to leaf; want == otree.Dummy
	// serves no block.
	accessLevelLeaf(la *LevelAccess, l int, want otree.BlockID, leaf uint64, storeWrite bool, val uint64) uint64
}

// MaxLevelBlocks is the most blocks one tree of a hierarchy holds: a bucket
// stores a block id in 32 bits, and the all-ones id is otree.Dummy's low
// half, so a stored id must stay below 2^32-1.
const MaxLevelBlocks = 1<<32 - 2

// checkLevelBlocks refuses a hierarchy whose data tree, the largest, over
// nLines (> 0) lines of slotLines-line blocks would hold more than
// MaxLevelBlocks blocks.
func checkLevelBlocks(nLines uint64, slotLines int) error {
	if blocks := (nLines-1)/uint64(slotLines) + 1; blocks > MaxLevelBlocks {
		return fmt.Errorf("oram: %d data blocks exceed the %d-block limit of one tree (block ids are stored in 32 bits)", blocks, uint64(MaxLevelBlocks))
	}
	return nil
}

// newPosmap is the position-map hierarchy over nLines lines: one level of
// slotLines-line data blocks, then posLevels recursive levels.
func newPosmap(nLines uint64, slotLines, posLevels int, r *rng.Rand) *posmap.Hierarchy {
	return posmap.New((nLines+uint64(slotLines)-1)/uint64(slotLines), posLevels, r)
}

// newHierarchy builds the hierarchy of an engine whose protocol is proto:
// level l's tree is geometry(l, its block count), and Layout gives every
// tree a disjoint physical region.
func newHierarchy(proto levelProtocol, nLines uint64, slotLines, posLevels int, seed uint64,
	geometry func(l int, blocks uint64) otree.Geometry, alignBytes, treeTopBytes uint64, countOnly bool) hierarchy {
	r := rng.New(seed)
	pm := newPosmap(nLines, slotLines, posLevels, r)
	geos := make([]otree.Geometry, pm.Levels())
	for l := range geos {
		geos[l] = geometry(l, pm.Blocks(l))
	}
	h := hierarchy{r: r, pm: pm, proto: proto, nLines: nLines, slotLines: uint64(slotLines), countOnly: countOnly}
	for l, g := range Layout(geos, alignBytes) {
		pm.Attach(l, g.NumLeaves())
		sp := NewSpace(l, g, treeTopBytes, r, pm)
		sp.CountOnly = countOnly
		h.spaces = append(h.spaces, sp)
	}
	return h
}

// Access implements Engine: one served LLC miss across the full hierarchy
// — the engine's protocol at every level, top of the recursion first.
//
// Plan lifetime: in address mode every access returns a freshly allocated
// plan, because timing controllers keep plans while they replay them. In
// count-only mode (RingConfig.CountTraffic) the returned plan is the
// engine's own and is overwritten by the next Access or DummyAccess;
// callers read what they need (Reads, Writes, Val, DataLeaf, StashAfter)
// before the next access and keep no reference.
func (h *hierarchy) Access(pa uint64, write bool, val uint64) *Plan {
	return h.access(pa, write, val, false)
}

// access walks the hierarchy for pa. With bypass the position-map levels
// are skipped (the block's leaf is tracked on-chip) and appear in the plan
// as empty accesses.
func (h *hierarchy) access(pa uint64, write bool, val uint64, bypass bool) *Plan {
	if pa >= h.nLines {
		panic(fmt.Sprintf("oram: PA %d outside protected space of %d lines", pa, h.nLines))
	}
	plan := h.newPlan()
	plan.PA, plan.Write = pa, write
	idx := pa / h.slotLines
	for l := len(h.spaces) - 1; l > 0; l-- {
		if bypass {
			plan.Levels[l] = LevelAccess{Level: l}
			continue
		}
		h.proto.accessLevel(&plan.Levels[l], l, h.pm.Index(l, idx), false, 0)
	}
	plan.FromStash = h.spaces[0].Stash.Contains(otree.BlockID(idx))
	plan.Val = h.proto.accessLevel(&plan.Levels[0], 0, idx, write, val)
	h.finishPlan(plan)
	return plan
}

// DummyAccess implements Engine: a full-protocol access along a fresh
// uniform path at every level, serving no block (the padding requests of
// §VI and the background evictions of prefetch baselines).
func (h *hierarchy) DummyAccess() *Plan {
	plan := h.newPlan()
	plan.Dummy = true
	for l := len(h.spaces) - 1; l >= 0; l-- {
		h.proto.accessLevelLeaf(&plan.Levels[l], l, otree.Dummy, h.r.Uint64n(h.spaces[l].Geo.NumLeaves()), false, 0)
	}
	h.finishPlan(plan)
	return plan
}

// newPlan counts a request and returns the plan it fills, with Levels and
// StashAfter sized to the hierarchy: fresh in address mode, the engine's
// own (zeroed, storage kept) in count-only mode.
func (h *hierarchy) newPlan() *Plan {
	h.reqID++
	n := len(h.spaces)
	if !h.countOnly {
		return &Plan{ReqID: h.reqID, Levels: make([]LevelAccess, n), StashAfter: make([]int, n)}
	}
	p := &h.reused
	if p.Levels == nil {
		p.Levels, p.StashAfter = make([]LevelAccess, n), make([]int, n)
	}
	*p = Plan{ReqID: h.reqID, Levels: p.Levels, StashAfter: p.StashAfter}
	return p
}

// finishPlan records what the access left behind: the exposed data leaf
// and every level's stash occupancy.
func (h *hierarchy) finishPlan(plan *Plan) {
	plan.DataLeaf = h.lastDataLeaf
	for l, sp := range h.spaces {
		plan.StashAfter[l] = sp.Stash.Len()
	}
}

// enter starts a protocol access along leaf at level l: it records the
// leaf a data-level access exposes, counts the access, and returns the
// level's space.
func (h *hierarchy) enter(l int, leaf uint64) *Space {
	if l == 0 {
		h.lastDataLeaf = leaf
	}
	sp := h.spaces[l]
	sp.Accesses++
	return sp
}

// Space exposes a level's state (testing, controllers).
func (h *hierarchy) Space(level int) *Space { return h.spaces[level] }

// Posmap exposes the position-map hierarchy (testing).
func (h *hierarchy) Posmap() *posmap.Hierarchy { return h.pm }

// Levels implements Engine.
func (h *hierarchy) Levels() int { return len(h.spaces) }

// StashLen implements Engine.
func (h *hierarchy) StashLen(level int) int { return h.spaces[level].Stash.Len() }

// StashMax implements Engine.
func (h *hierarchy) StashMax(level int) int { return h.spaces[level].Stash.MaxSeen() }

// StashSamples implements Engine.
func (h *hierarchy) StashSamples(level int) []int { return h.spaces[level].Stash.Samples() }

// StashOverflows implements Engine.
func (h *hierarchy) StashOverflows(level int) uint64 { return h.spaces[level].Stash.Overflows() }

// SampleStashes implements Engine.
func (h *hierarchy) SampleStashes() {
	for _, sp := range h.spaces {
		sp.Stash.Sample()
	}
}

// ResetPeaks implements Engine.
func (h *hierarchy) ResetPeaks() {
	for _, sp := range h.spaces {
		sp.Stash.ResetPeak()
	}
}

// TopHits returns the total 64-byte line movements the tree-top caches
// absorbed across all levels (the serving layer's cache-resident hit
// counter; bytes saved = 64 * TopHits).
func (h *hierarchy) TopHits() uint64 {
	var n uint64
	for _, sp := range h.spaces {
		n += sp.TopHits
	}
	return n
}
