// Package baselines assembles the state-of-the-art ORAM designs the paper
// compares Palermo against (§VII-B), each as a configuration of the
// PathORAM/RingORAM functional engines plus the design's distinguishing
// policy:
//
//   - PageORAM  — PathORAM with sibling-node accesses and smaller buckets,
//     trading extra row-buffer-friendly traffic for residency options.
//   - IR-ORAM   — PathORAM with on-chip tracking of recently resolved
//     positions (tree-top PosMap bypass) and mid-tree bucket shrinking.
//   - PrORAM    — PathORAM that maps groups of consecutive physical
//     addresses to one leaf so a single path read prefetches the group;
//     the forced mapping pressures the stash, answered by background
//     dummy evictions beyond a threshold.
//   - LAORAM    — PrORAM over a fat tree (larger buckets toward the root)
//     to relieve that stash pressure.
package baselines

import (
	"fmt"

	"palermo/internal/oram"
)

// NewPageORAM builds the PageORAM engine: sibling reads with Z=2 buckets
// (the reduced bucket size its sibling residency enables).
func NewPageORAM(nLines uint64, seed uint64) (*oram.Path, error) {
	cfg := oram.DefaultPathConfig()
	cfg.NLines = nLines
	cfg.Seed = seed
	cfg.Z = 2
	cfg.SiblingReads = true
	cfg.PackDepth = 2 // page-aware layout: 2-level subtrees share DRAM rows
	return oram.NewPath(cfg)
}

// NewPrORAM builds the PrORAM engine with the given prefetch length. With
// fatTree the LAORAM fat-tree shape (2x root scale) is applied.
func NewPrORAM(nLines uint64, prefetch int, fatTree bool, seed uint64) (*oram.Path, error) {
	cfg := oram.DefaultPathConfig()
	cfg.NLines = nLines
	cfg.Seed = seed
	cfg.GroupLeafLines = prefetch
	if fatTree {
		cfg.FatRootScale = 2
	}
	return oram.NewPath(cfg)
}

// StashThresholdPolicy returns a DummyPolicy that injects a background
// eviction whenever the data-level stash holds more than threshold tags
// (PrORAM's background eviction; the paper's Fig 4 uses a 1024-entry stash).
func StashThresholdPolicy(e oram.Engine, threshold int) func() bool {
	return func() bool { return e.StashLen(0) > threshold }
}

// IRORAM wraps PathORAM with IR-ORAM's two reductions: a bounded on-chip
// table of recently resolved block positions that bypasses the recursive
// posmap ORAMs on a hit, and shrunken mid-tree buckets. The embedded
// PathORAM engine serves every oram.Engine method but Access.
type IRORAM struct {
	*oram.Path

	capacity int
	order    []uint64 // FIFO of resident group indices
	resident map[uint64]bool

	Hits, Misses uint64
}

// NewIRORAM builds the engine. tableEntries bounds the on-chip position
// table (the paper sizes it by the tree-top cache provisioning).
func NewIRORAM(nLines uint64, tableEntries int, seed uint64) (*IRORAM, error) {
	if tableEntries <= 0 {
		return nil, fmt.Errorf("baselines: IR-ORAM table must have entries")
	}
	cfg := oram.DefaultPathConfig()
	cfg.NLines = nLines
	cfg.Seed = seed
	cfg.MidShrink = 2
	p, err := oram.NewPath(cfg)
	if err != nil {
		return nil, err
	}
	return &IRORAM{Path: p, capacity: tableEntries, resident: make(map[uint64]bool)}, nil
}

func (e *IRORAM) touch(idx uint64) {
	if e.resident[idx] {
		return
	}
	e.resident[idx] = true
	e.order = append(e.order, idx)
	for len(e.resident) > e.capacity {
		old := e.order[0]
		e.order = e.order[1:]
		delete(e.resident, old)
	}
}

// Access implements oram.Engine: table hits skip the posmap ORAM levels.
func (e *IRORAM) Access(pa uint64, write bool, val uint64) *oram.Plan {
	idx := e.Path.GroupIndex(pa)
	if e.resident[idx] {
		e.Hits++
		e.touch(idx)
		return e.Path.AccessBypass(pa, write, val)
	}
	e.Misses++
	e.touch(idx)
	return e.Path.Access(pa, write, val)
}

// Ensure interface satisfaction.
var _ oram.Engine = (*IRORAM)(nil)
