// Package oram implements the functional ORAM protocol engines — PathORAM
// and RingORAM (Algorithm 1), including the recursive posmap hierarchy —
// in the functional-first, timing-replay architecture described in
// DESIGN.md §4.1: every logical ORAM access executes the real protocol
// (trees, stash, remapping) in commit order and emits an access Plan, the
// exact per-phase lists of DRAM reads and writes a timing controller must
// replay under its concurrency discipline.
package oram

import "fmt"

// PhaseKind identifies a protocol phase within one hierarchy level's access.
// The names follow the paper's PE pipeline (Fig 7/8).
type PhaseKind int

// Protocol phases.
const (
	PhaseLM PhaseKind = iota // Load Metadata: node metadata reads along the path
	PhaseER                  // Early Reshuffle: bucket resets (reads then writes)
	PhaseRP                  // Read Path: one (Ring) or all (Path) slots per node
	PhaseEP                  // Evict Path: periodic whole-path reset
	PhaseWB                  // Write Back: PathORAM's unconditional path write
)

// String implements fmt.Stringer.
func (k PhaseKind) String() string {
	switch k {
	case PhaseLM:
		return "LM"
	case PhaseER:
		return "ER"
	case PhaseRP:
		return "RP"
	case PhaseEP:
		return "EP"
	case PhaseWB:
		return "WB"
	default:
		return fmt.Sprintf("PhaseKind(%d)", int(k))
	}
}

// Phase is one batch of DRAM traffic: the controller issues all Reads
// (waiting for them per its discipline) and then all Writes (fire and
// forget; ordering is enforced at the memory controller).
type Phase struct {
	Kind   PhaseKind
	Reads  []uint64
	Writes []uint64

	// NR/NW count line movements whose addresses were elided — the
	// serving engine's count-only mode (RingConfig.CountTraffic), where
	// nothing replays the plan and materializing per-access address lists
	// is pure allocation cost. Address-mode plans keep them zero, so
	// ReadCount/WriteCount are the mode-independent totals.
	NR, NW int
}

// ReadCount returns the phase's total line reads in either traffic mode.
func (ph *Phase) ReadCount() int { return len(ph.Reads) + ph.NR }

// WriteCount returns the phase's total line writes in either traffic mode.
func (ph *Phase) WriteCount() int { return len(ph.Writes) + ph.NW }

// LevelAccess is the traffic of one hierarchy level's tree access, with
// phases in protocol execution order.
type LevelAccess struct {
	Level  int // 0 = data, 1 = PosMap1, 2 = PosMap2
	Phases []Phase
	Evict  bool // an EP is part of this access (every A-th access)
}

// begin resets la for an access to level l, keeping its phase storage
// when the plan is reused.
func (la *LevelAccess) begin(l int, evict bool, maxPhases int) {
	phases := la.Phases[:0]
	if phases == nil {
		phases = make([]Phase, 0, maxPhases)
	}
	*la = LevelAccess{Level: l, Evict: evict, Phases: phases}
}

// beginPhase appends an empty phase of the given kind to la and returns it
// for the emit helpers to fill. la.Phases has room for every phase of an
// access, so the pointer stays valid until the next beginPhase.
func (la *LevelAccess) beginPhase(kind PhaseKind) *Phase {
	la.Phases = append(la.Phases, Phase{Kind: kind})
	return &la.Phases[len(la.Phases)-1]
}

// Plan is the complete traffic of one ORAM request across the hierarchy.
type Plan struct {
	ReqID uint64
	PA    uint64
	Write bool
	Dummy bool // background/padding request serving no LLC miss

	// Levels is indexed by hierarchy level (0 = data). Logical execution
	// order is deepest posmap first; concurrency is the controller's choice.
	Levels []LevelAccess

	// Val is the value returned for reads (correctness checking).
	Val uint64

	// FromStash reports whether the data-level block was already resident
	// in the stash when the access began (Table I's victim behaviour B).
	FromStash bool

	// DataLeaf is the ORAM leaf whose path the data-level access exposed
	// on the memory bus (the attacker-visible randomness, §VI).
	DataLeaf uint64

	// StashAfter is the per-level stash tag occupancy after the access.
	StashAfter []int
}

// Reads returns the total DRAM read count in the plan (both traffic modes).
func (p *Plan) Reads() int {
	n := 0
	for _, la := range p.Levels {
		for i := range la.Phases {
			n += la.Phases[i].ReadCount()
		}
	}
	return n
}

// Writes returns the total DRAM write count in the plan (both traffic modes).
func (p *Plan) Writes() int {
	n := 0
	for _, la := range p.Levels {
		for i := range la.Phases {
			n += la.Phases[i].WriteCount()
		}
	}
	return n
}

// Engine is a functional protocol engine: it executes accesses in commit
// order and emits replayable plans. Implementations: Ring (Algorithm 1 and
// the Palermo variant), Path, and the baseline wrappers in
// internal/baselines.
type Engine interface {
	// Access performs one logical access (a served LLC miss) and returns
	// its traffic plan. For writes, val is stored; for reads, plan.Val
	// holds the value read.
	Access(pa uint64, write bool, val uint64) *Plan
	// DummyAccess performs a padding/background access along a random path.
	DummyAccess() *Plan
	// Levels returns the number of hierarchy levels (data + ORAM posmaps).
	Levels() int
	// StashLen returns the current stash tag occupancy of a level.
	StashLen(level int) int
	// StashMax returns the peak stash occupancy of a level.
	StashMax(level int) int
	// SampleStashes records stash occupancy for Fig 12-style plots.
	SampleStashes()
	// StashSamples returns the recorded occupancy samples of a level.
	StashSamples(level int) []int
	// StashOverflows returns how many insertions exceeded the hardware tag
	// budget at a level (0 for a design respecting the bound).
	StashOverflows(level int) uint64
	// ResetPeaks clears stash peak tracking (warmup boundary).
	ResetPeaks()
	// Space exposes a level's tree, stash and tree-top state.
	Space(level int) *Space
}
