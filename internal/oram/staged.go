package oram

import (
	"fmt"

	"palermo/internal/otree"
	"palermo/internal/posmap"
)

// This file splits Ring.Access into the explicit three-stage form the
// pipelined serving layer drives:
//
//	Plan  — bind the request, assign its commit-order id, and expose the
//	        backend-visible block set as an id vector (PlanAccess/FetchSet).
//	Fetch — the caller moves the vector through the storage backend
//	        (backend.VectorBackend.GetMany/PutMany); the engine is not
//	        involved, so this stage is free to run as an awaitable I/O
//	        unit on another goroutine.
//	Apply — the full deterministic engine transition: posmap lookups and
//	        remaps, slot selection, stash merge, eviction, reshuffles
//	        (StagedAccess.Apply).
//
// Determinism contract: the engine's state evolution (leaf draws, slot
// permutation draws, stash motion) happens entirely inside Apply, and the
// caller executes Plan(k); Apply(k); Plan(k+1); Apply(k+1); ... on one
// goroutine in commit order — exactly the operation order of the serial
// Access. The only thing a pipeline overlaps is the Fetch stage of access
// k with the Apply crypto of access k (and the commit of access k with the
// whole engine stage of access k+1), so per-shard leaf traces, counters,
// and checkpoints are bit-identical to the serial engine at any pipeline
// depth. The differential suite enforces this.

// StagedAccess is one access between its Plan and Apply stages. It is a
// value type so the serial Access composition stays allocation-free; the
// zero value is invalid.
type StagedAccess struct {
	e     *Ring
	reqID uint64
	pa    uint64
	write bool
	val   uint64
	done  bool
}

// PlanAccess begins a staged access: validates the PA, claims the next
// commit-order request id, and returns the handle whose FetchSet names the
// blocks the storage backend must move for this access. No engine state
// beyond the request counter changes until Apply.
func (e *Ring) PlanAccess(pa uint64, write bool, val uint64) StagedAccess {
	if pa >= e.cfg.NLines {
		panic(fmt.Sprintf("oram: PA %d outside protected space of %d lines", pa, e.cfg.NLines))
	}
	e.reqID++
	return StagedAccess{e: e, reqID: e.reqID, pa: pa, write: write, val: val}
}

// FetchSet appends the backend-visible block-id vector of this access to
// dst and returns it: the data-space blocks whose sealed payloads the
// storage backend serves. The recursive posmap levels are engine-resident
// state (their storage cost is modeled, not materialized), so the vector
// is the access's data block group — one id per DataSlotLines line group.
func (op *StagedAccess) FetchSet(dst []uint64) []uint64 {
	return append(dst, op.pa/uint64(op.e.cfg.DataSlotLines))
}

// Write reports whether the staged access is a write.
func (op *StagedAccess) Write() bool { return op.write }

// PosmapFetchSet appends the backend-visible data block ids covered by this
// access's position-map line at recursion level `level`: the PrORAM-style
// prefetch group. See Ring.PosmapGroup for the contract.
func (op *StagedAccess) PosmapFetchSet(level int, dst []uint64) []uint64 {
	return op.e.PosmapGroup(op.pa, level, dst)
}

// PosmapGroup appends the data-space block-group ids whose leaf assignments
// live on the position-map line an access to pa reads at recursion level
// `level` (1 = PosMap1). The recursive posmap levels themselves are
// engine-resident (FetchSet documents why), so "prefetching a posmap line"
// means warming the contiguous run of data blocks that line's 16 entries
// index — the paper's PrORAM group-prefetch insight: blocks sharing a
// posmap line are spatially adjacent, and an access to one predicts
// accesses to its siblings.
//
// The helper is pure — only integer division via pm.Index, never pm.Leaf
// or pm.Remap (which draw RNG and would perturb the engine's deterministic
// state evolution). It is safe to call at plan/announce time, before
// PlanAccess, on any goroutine. Out-of-range pa or level returns dst
// unchanged.
func (e *Ring) PosmapGroup(pa uint64, level int, dst []uint64) []uint64 {
	if pa >= e.cfg.NLines || level <= 0 || level >= e.pm.Levels() {
		return dst
	}
	groupIdx := pa / uint64(e.cfg.DataSlotLines)
	span := uint64(1)
	for l := 0; l < level; l++ {
		span *= posmap.EntriesPerBlock
	}
	start := e.pm.Index(level, groupIdx) * span
	end := start + span
	if n := e.pm.Blocks(0); end > n {
		end = n
	}
	for id := start; id < end; id++ {
		dst = append(dst, id)
	}
	return dst
}

// Apply executes the engine transition of the staged access — the posmap
// remaps, path reads, stash merge, and evictions of every hierarchy level,
// in exactly the operation order of the serial Access — and returns the
// traffic plan (owned by the engine in count-only mode; see Ring.Access).
// Apply must run on the engine's owner goroutine, in PlanAccess order,
// exactly once.
func (op *StagedAccess) Apply() *Plan {
	if op.done {
		panic("oram: StagedAccess applied twice")
	}
	op.done = true
	e := op.e
	plan := e.newPlan()
	plan.ReqID, plan.PA, plan.Write = op.reqID, op.pa, op.write
	groupIdx := op.pa / uint64(e.cfg.DataSlotLines)
	for l := len(e.spaces) - 1; l >= 0; l-- {
		idx := e.pm.Index(l, groupIdx)
		if l == 0 {
			plan.FromStash = e.spaces[0].Stash.Contains(otree.BlockID(idx))
		}
		got := e.accessLevel(&plan.Levels[l], l, idx, l == 0 && op.write, op.val)
		if l == 0 {
			plan.Val = got
		}
	}
	e.finishPlan(plan)
	return plan
}
