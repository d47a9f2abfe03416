package oram

import (
	"fmt"

	"palermo/internal/otree"
	"palermo/internal/posmap"
	"palermo/internal/rng"
)

// RingVariant selects the protocol ordering executed by the Ring engine.
type RingVariant int

// Variants.
const (
	// VariantBaseline is RingORAM Algorithm 1: ReadPath, then EvictPath
	// every A accesses, then EarlyReshuffle (reset at accessed == S).
	VariantBaseline RingVariant = iota
	// VariantPalermo is Algorithm 2: EarlyReshufflePreCheck is hoisted
	// before ReadPath (reset at accessed == S-1) so the write-to-read
	// critical section resolves as early as possible, and in-flight
	// (pending) PAs are read along a fresh uniform leaf.
	VariantPalermo
)

// RingConfig parameterizes the Ring engine.
type RingConfig struct {
	NLines        uint64 // protected cache lines (16 GB/64 B = 2^28 in Table III)
	Z, S, A       int    // bucket real capacity, dummy budget, eviction period
	PosLevels     int    // ORAM-resident posmap levels (paper: 2)
	TreeTopBytes  uint64 // per-space tree-top cache: the largest top that fits (otree.NewTreeTop)
	DataSlotLines int    // prefetch width: cache lines per data-tree slot (>=1)
	AlignBytes    uint64 // physical region alignment (DRAM row span)
	Seed          uint64
	Variant       RingVariant

	// CountTraffic elides DRAM address lists from plans (Phase.NR/NW
	// carry the counts instead). For engines whose plans nobody replays —
	// the serving shards — this removes every per-access allocation:
	// totals (Plan.Reads/Writes) are identical either way, and because
	// nothing retains such a plan the engine refills one Plan on every
	// access (see Ring.Access for the contract).
	CountTraffic bool
}

// Validate fills defaults and checks invariants.
func (c *RingConfig) Validate() error {
	if c.NLines == 0 {
		return fmt.Errorf("oram: NLines must be > 0")
	}
	if c.Z <= 0 || c.S <= 0 || c.A <= 0 {
		return fmt.Errorf("oram: Z/S/A must be positive, got (%d,%d,%d)", c.Z, c.S, c.A)
	}
	if c.Z+c.S > otree.MaxSlots {
		return fmt.Errorf("oram: Z+S = %d slots exceeds the %d-slot bucket limit", c.Z+c.S, otree.MaxSlots)
	}
	if c.PosLevels < 0 {
		return fmt.Errorf("oram: PosLevels must be >= 0")
	}
	if c.DataSlotLines == 0 {
		c.DataSlotLines = 1
	}
	if c.AlignBytes == 0 {
		c.AlignBytes = 32 << 10
	}
	return nil
}

// hierarchy builds the position-map hierarchy of a validated configuration:
// one level per data slot group, then PosLevels recursive levels.
func (c *RingConfig) hierarchy(r *rng.Rand) *posmap.Hierarchy {
	dataBlocks := (c.NLines + uint64(c.DataSlotLines) - 1) / uint64(c.DataSlotLines)
	return posmap.New(dataBlocks, c.PosLevels, r)
}

// levelGeometry is the (unplaced) tree of hierarchy level l over blocks.
func (c *RingConfig) levelGeometry(l int, blocks uint64) otree.Geometry {
	lines := 1
	if l == 0 {
		lines = c.DataSlotLines
	}
	return otree.UniformWide(blocks, c.Z, c.S, lines, 0, 0)
}

// DefaultRingConfig is the classic RingORAM configuration (Z,S,A) = (4,5,3)
// protecting a 16 GB space with 3-level recursion and the paper's Table III
// cache provisioning.
func DefaultRingConfig() RingConfig {
	return RingConfig{
		NLines:       1 << 28,
		Z:            4,
		S:            5,
		A:            3,
		PosLevels:    2,
		TreeTopBytes: 256 << 10,
		Seed:         1,
	}
}

// BandwidthRingConfig is the bandwidth-optimal RingORAM configuration the
// paper's baseline uses — the large-Z setting from "Constants Count" that
// gives RingORAM its 42% traffic reduction over PathORAM ((Z,S,A) =
// (16,27,20), which Fig 14a also identifies as Palermo's sweet spot).
func BandwidthRingConfig() RingConfig {
	c := DefaultRingConfig()
	c.Z, c.S, c.A = 16, 27, 20
	return c
}

// PalermoRingConfig is the configuration Palermo adopts: (Z,S,A) =
// (16,27,20) with the Palermo protocol ordering.
func PalermoRingConfig() RingConfig {
	c := BandwidthRingConfig()
	c.Variant = VariantPalermo
	return c
}

// Ring is the RingORAM functional engine over a recursive posmap hierarchy.
type Ring struct {
	cfg    RingConfig
	r      *rng.Rand
	pm     *posmap.Hierarchy
	spaces []*Space
	reqID  uint64

	lastDataLeaf uint64 // leaf exposed by the most recent level-0 access

	reused Plan // count-only mode: the plan every access refills
}

// NewRing builds the engine: one Space per hierarchy level with disjoint
// physical layout.
func NewRing(cfg RingConfig) (*Ring, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	pm := cfg.hierarchy(r)
	geos := make([]otree.Geometry, pm.Levels())
	for l := range geos {
		geos[l] = cfg.levelGeometry(l, pm.Blocks(l))
	}
	geos = Layout(geos, cfg.AlignBytes)

	e := &Ring{cfg: cfg, r: r, pm: pm}
	for l, g := range geos {
		pm.Attach(l, g.NumLeaves())
		sp := NewSpace(l, g, cfg.TreeTopBytes, r, pm)
		sp.CountOnly = cfg.CountTraffic
		e.spaces = append(e.spaces, sp)
	}
	return e, nil
}

// TopHits returns the total 64-byte line movements the tree-top caches
// absorbed across all levels (the serving layer's cache-resident hit
// counter; bytes saved = 64 * TopHits).
func (e *Ring) TopHits() uint64 {
	var n uint64
	for _, sp := range e.spaces {
		n += sp.TopHits
	}
	return n
}

// Config returns the engine configuration (with defaults filled).
func (e *Ring) Config() RingConfig { return e.cfg }

// Space exposes a level's state (testing, controllers).
func (e *Ring) Space(level int) *Space { return e.spaces[level] }

// Posmap exposes the hierarchy (testing).
func (e *Ring) Posmap() *posmap.Hierarchy { return e.pm }

// Levels implements Engine.
func (e *Ring) Levels() int { return len(e.spaces) }

// StashLen implements Engine.
func (e *Ring) StashLen(level int) int { return e.spaces[level].Stash.Len() }

// StashMax implements Engine.
func (e *Ring) StashMax(level int) int { return e.spaces[level].Stash.MaxSeen() }

// SampleStashes implements Engine.
func (e *Ring) SampleStashes() {
	for _, sp := range e.spaces {
		sp.Stash.Sample()
	}
}

// StashSamples implements Engine.
func (e *Ring) StashSamples(level int) []int { return e.spaces[level].Stash.Samples() }

// StashOverflows implements Engine.
func (e *Ring) StashOverflows(level int) uint64 { return e.spaces[level].Stash.Overflows() }

// ResetPeaks implements Engine.
func (e *Ring) ResetPeaks() {
	for _, sp := range e.spaces {
		sp.Stash.ResetPeak()
	}
}

// Access implements Engine: one served LLC miss across the full hierarchy
// — the posmap remaps, path reads, stash merge and evictions of every
// level, top of the recursion first.
//
// Plan lifetime: in address mode every access returns a freshly allocated
// plan, because timing controllers keep plans while they replay them. In
// count-only mode (RingConfig.CountTraffic) the returned plan is the
// engine's own and is overwritten by the next Access or DummyAccess;
// callers read what they need (Reads, Writes, Val, DataLeaf, StashAfter)
// before the next access and keep no reference.
func (e *Ring) Access(pa uint64, write bool, val uint64) *Plan {
	if pa >= e.cfg.NLines {
		panic(fmt.Sprintf("oram: PA %d outside protected space of %d lines", pa, e.cfg.NLines))
	}
	e.reqID++
	plan := e.newPlan()
	plan.ReqID, plan.PA, plan.Write = e.reqID, pa, write
	groupIdx := pa / uint64(e.cfg.DataSlotLines)
	for l := len(e.spaces) - 1; l >= 0; l-- {
		idx := e.pm.Index(l, groupIdx)
		if l == 0 {
			plan.FromStash = e.spaces[0].Stash.Contains(otree.BlockID(idx))
		}
		got := e.accessLevel(&plan.Levels[l], l, idx, l == 0 && write, val)
		if l == 0 {
			plan.Val = got
		}
	}
	e.finishPlan(plan)
	return plan
}

// newPlan returns the plan the next access fills: zeroed, with Levels and
// StashAfter sized to the hierarchy.
func (e *Ring) newPlan() *Plan {
	n := len(e.spaces)
	if !e.cfg.CountTraffic {
		return &Plan{Levels: make([]LevelAccess, n), StashAfter: make([]int, n)}
	}
	p := &e.reused
	if p.Levels == nil {
		p.Levels, p.StashAfter = make([]LevelAccess, n), make([]int, n)
	}
	*p = Plan{Levels: p.Levels, StashAfter: p.StashAfter}
	return p
}

// DummyAccess implements Engine: a full-protocol access along a fresh
// uniform path at every level, serving no block (the padding requests of
// §VI and the background requests of prefetch baselines).
func (e *Ring) DummyAccess() *Plan {
	e.reqID++
	plan := e.newPlan()
	plan.ReqID, plan.Dummy = e.reqID, true
	for l := len(e.spaces) - 1; l >= 0; l-- {
		e.accessLevelLeaf(&plan.Levels[l], l, otree.Dummy, e.r.Uint64n(e.spaces[l].Geo.NumLeaves()), false, 0)
	}
	e.finishPlan(plan)
	return plan
}

// finishPlan records what the access left behind: the exposed data leaf
// and every level's stash occupancy.
func (e *Ring) finishPlan(plan *Plan) {
	plan.DataLeaf = e.lastDataLeaf
	for l, sp := range e.spaces {
		plan.StashAfter[l] = sp.Stash.Len()
	}
}

// accessLevel performs the Ring protocol for block idx of level l, filling
// la, and returns the block's value.
func (e *Ring) accessLevel(la *LevelAccess, l int, idx uint64, storeWrite bool, val uint64) uint64 {
	sp := e.spaces[l]
	// Line 7-8: remap before the path access becomes visible on the bus.
	var leaf uint64
	if e.cfg.Variant == VariantPalermo && sp.Stash.Contains(otree.BlockID(idx)) {
		// Algorithm 2 line 5: pending PAs read a fresh uniform leaf so two
		// overlapped accesses to one PA never expose the same path twice.
		leaf = e.r.Uint64n(sp.Geo.NumLeaves())
		e.pm.Remap(l, idx)
	} else {
		leaf = e.pm.LeafRemap(l, idx)
	}
	return e.accessLevelLeaf(la, l, otree.BlockID(idx), leaf, storeWrite, val)
}

// maxLevelPhases is the most phases one level access emits (LM, ER, RP, EP).
const maxLevelPhases = 4

// beginPhase appends an empty phase of the given kind to la and returns it
// for the emit helpers to fill. la.Phases has room for every phase of an
// access, so the pointer stays valid until the next beginPhase.
func (la *LevelAccess) beginPhase(kind PhaseKind) *Phase {
	la.Phases = append(la.Phases, Phase{Kind: kind})
	return &la.Phases[len(la.Phases)-1]
}

// accessLevelLeaf executes the per-tree protocol along the given leaf,
// filling la (whose Phases storage is reused when the plan is), and
// returns the value of want. want == otree.Dummy performs a dummy access.
func (e *Ring) accessLevelLeaf(la *LevelAccess, l int, want otree.BlockID, leaf uint64, storeWrite bool, val uint64) uint64 {
	if l == 0 {
		e.lastDataLeaf = leaf
	}
	sp := e.spaces[l]
	sp.Accesses++
	evict := sp.Accesses%uint64(e.cfg.A) == 0
	phases := la.Phases[:0]
	if phases == nil {
		phases = make([]Phase, 0, maxLevelPhases)
	}
	*la = LevelAccess{Level: l, Evict: evict, Phases: phases}

	// The path's nodes and buckets, resolved once (index == tree level).
	path := sp.path(leaf)
	buckets := sp.buckets(path)

	// LM: load node metadata along the path.
	lm := la.beginPhase(PhaseLM)
	if sp.CountOnly {
		sp.countPathReads(lm, 1)
	} else {
		sp.reserve(lm, 1, 0)
		for lv, n := range path {
			sp.emitMetaRead(lm, lv, n)
		}
	}

	// Palermo hoists the reshuffle before the reads (PreCheck at S-1).
	if e.cfg.Variant == VariantPalermo {
		er := la.beginPhase(PhaseER)
		for lv, b := range buckets {
			if sp.Store.NeedsReset(b, lv, 1) {
				sp.resetNode(er, lv, path[lv])
			}
		}
	}

	// RP: one slot per node; the real block (if tree-resident) moves to the
	// stash, everything else is a consumed dummy.
	rp := la.beginPhase(PhaseRP)
	if sp.CountOnly {
		sp.countPathReads(rp, sp.Geo.SlotLines)
	} else {
		sp.reserve(rp, sp.Geo.SlotLines, 0)
	}
	found := false
	var got uint64
	for lv, b := range buckets {
		entry, slot, ok := sp.Store.ReadSlot(b, lv, want)
		if !sp.CountOnly {
			sp.emitSlotRead(rp, lv, path[lv], slot)
		}
		if ok {
			found = true
			got = entry.Val
			sp.Stash.Put(stashEntry(entry, sp.leafOf(entry.ID)))
		}
	}
	if want != otree.Dummy {
		if !found {
			if se, ok := sp.Stash.Get(want); ok {
				got = se.Val
				sp.Stash.Remap(want, sp.leafOf(want))
			} else {
				// First touch: the block exists nowhere yet; install it.
				sp.Stash.Put(stashEntryNew(want, sp.leafOf(want)))
			}
		} else {
			sp.Stash.Remap(want, sp.leafOf(want))
		}
		if storeWrite {
			se, _ := sp.Stash.Get(want)
			se.Val = val
			sp.Stash.Put(se)
		}
	}

	// EP: deterministic whole-path eviction every A accesses. The Palermo
	// protocol keeps EP serialized after RP to preserve the stash bound.
	if evict {
		sp.evictPath(la.beginPhase(PhaseEP))
	}

	// Baseline EarlyReshuffle trails the access (Algorithm 1 line 16).
	if e.cfg.Variant == VariantBaseline {
		er := la.beginPhase(PhaseER)
		for lv, b := range buckets {
			if sp.Store.NeedsReset(b, lv, 0) {
				sp.resetNode(er, lv, path[lv])
			}
		}
	}
	return got
}
