package oram

import (
	"fmt"

	"palermo/internal/otree"
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
	return checkLevelBlocks(c.NLines, c.DataSlotLines)
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
	hierarchy
	cfg RingConfig
}

// NewRing builds the engine: one Space per hierarchy level with disjoint
// physical layout.
func NewRing(cfg RingConfig) (*Ring, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Ring{cfg: cfg}
	e.hierarchy = newHierarchy(e, cfg.NLines, cfg.DataSlotLines, cfg.PosLevels, cfg.Seed,
		cfg.levelGeometry, cfg.AlignBytes, cfg.TreeTopBytes, cfg.CountTraffic)
	return e, nil
}

// Config returns the engine configuration (with defaults filled).
func (e *Ring) Config() RingConfig { return e.cfg }

// accessLevel implements levelProtocol: the Ring protocol for block idx of
// level l.
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

// accessLevelLeaf implements levelProtocol: the Ring protocol along leaf.
func (e *Ring) accessLevelLeaf(la *LevelAccess, l int, want otree.BlockID, leaf uint64, storeWrite bool, val uint64) uint64 {
	sp := e.enter(l, leaf)
	evict := sp.Accesses%uint64(e.cfg.A) == 0
	la.begin(l, evict, maxLevelPhases)

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
	for lv, b := range buckets {
		slot, ok := sp.Store.ReadSlot(b, lv, want)
		if !sp.CountOnly {
			sp.emitSlotRead(rp, lv, path[lv], slot)
		}
		if ok {
			sp.stashPulled(want)
		}
	}
	var got uint64
	if want != otree.Dummy {
		got = sp.serve(want, storeWrite, val)
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
