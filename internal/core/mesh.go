// Package core implements the paper's primary contribution: the Palermo
// ORAM controller — a 2D mesh of processing elements (PEs) that serves
// multiple ORAM requests concurrently while enforcing only the protocol's
// minimal dependencies (Fig 7/8).
//
// Geometry: each PE row serves one hierarchy level (Data, PosMap1, PosMap2);
// each PE column serves one in-flight ORAM request. Per-PE pipeline:
//
//	CP  — await the mapped leaf (on-chip PosMap3 for the deepest row;
//	      the child row's RP response otherwise)
//	LM  — after the west sibling's tree-write clear: load path metadata
//	ER  — hoisted early reshuffle (Algorithm 2's PreCheck); issuing its
//	      writes fires the east clear for non-evicting requests
//	RP  — read path; completing it answers the parent row's CP query and,
//	      on the data row, the LLC miss
//	EP  — every A-th request: evict path after RP; only then does the east
//	      clear fire (the stash-bound serialization of §IV-B)
//
// Functional state updates are committed in GlobalID order at issue time
// (the CommitHead discipline), so concurrency never changes logical
// outcomes — only DRAM timing.
package core

import (
	"palermo/internal/ctrl"
	"palermo/internal/dram"
	"palermo/internal/oram"
	"palermo/internal/sim"
)

// CPHopLat is the PE-to-PE query/response latency in ticks.
const CPHopLat = 2

// Mesh is the Palermo PE-mesh timing controller.
type Mesh struct {
	Name    string
	Columns int // PE columns (Table III: 3 rows x 8 columns)

	// SoftwareCoarse models Palermo-SW (§IV-C): the protocol's
	// inter-request overlap survives, but the coarse software
	// synchronization around the PosMap check suppresses intra-request
	// parallelism — a hierarchy level must fully finish (including its
	// eviction writes) before its parent level may start, and the
	// tree-write clear passes to the next request only after the level
	// completes.
	SoftwareCoarse bool
}

type meshRun struct {
	ctrl.Window
	cols   int
	coarse bool

	levels     int
	slot       int           // launch counter for round-robin column choice
	colFree    []*sim.Signal // per column: fires when its current request retires
	writeClear []*sim.Signal // per level: tree good-to-read for the next request
	prevIssued *sim.Signal   // commit-order chain
}

// Run implements ctrl.Controller on the PE mesh.
func (m Mesh) Run(eng *sim.Engine, mem *dram.Memory, oramE oram.Engine, src ctrl.Source, cfg ctrl.RunConfig) ctrl.Result {
	if m.Columns <= 0 {
		m.Columns = 8
	}
	cfg.Requests = max(cfg.Requests, 1)
	r := &meshRun{
		Window: ctrl.NewWindow(m.Name, eng, mem, oramE, src, cfg),
		cols:   m.Columns,
		coarse: m.SoftwareCoarse,
		levels: oramE.Levels(),
	}
	for c := 0; c < r.cols; c++ {
		r.colFree = append(r.colFree, sim.NewFiredSignal(eng))
	}
	for l := 0; l < r.levels; l++ {
		r.writeClear = append(r.writeClear, sim.NewFiredSignal(eng))
	}
	r.prevIssued = sim.NewFiredSignal(eng)
	return r.Drive(r.tryIssue)
}

// tryIssue assigns the next ORAM request (real or dummy) to its column as
// soon as both the column is free and the previous request has committed
// (GlobalID order).
func (r *meshRun) tryIssue() {
	if r.Issued >= r.Total {
		return
	}
	col := r.slot % r.cols
	r.slot++
	prev := r.prevIssued
	myIssued := sim.NewSignal(r.Eng)
	r.prevIssued = myIssued
	sim.WaitAll(r.Eng, []*sim.Signal{r.colFree[col], prev}, func() {
		r.launch(col)
		myIssued.Fire()
		r.tryIssue()
	})
}

// launch commits one request functionally and wires up its PE column.
// Dummy requests (background evictions) do not consume the real-request
// budget or the trace.
func (r *meshRun) launch(col int) {
	plan, tag := r.Next() // tryIssue never launches past the last request
	measured := r.Measuring

	issueAt := r.Eng.Now()
	retire := sim.NewBatch(r.Eng, r.levels)
	freed := sim.NewSignal(r.Eng)
	r.colFree[col] = freed
	retire.Sig().Wait(freed.Fire)

	// CP chain: the deepest row reads on-chip PosMap3 after the query
	// propagates down; each shallower row's leaf arrives with its child's
	// RP response.
	leafReady := make([]*sim.Signal, r.levels)
	for l := 0; l < r.levels; l++ {
		leafReady[l] = sim.NewSignal(r.Eng)
	}
	top := r.levels - 1
	r.Eng.After(sim.Tick(top)*CPHopLat, leafReady[top].Fire)

	for l := 0; l < r.levels; l++ {
		l := l
		la := plan.Levels[l]
		prevClear := r.writeClear[l]
		myClear := sim.NewSignal(r.Eng)
		r.writeClear[l] = myClear

		onRPDone := func() {
			if l > 0 {
				if !r.coarse {
					r.Eng.After(CPHopLat, leafReady[l-1].Fire)
				}
				return
			}
			// Per-request captures happen here, at response time, so the
			// latency sample and its labels stay aligned even though
			// columns retire out of order.
			if measured {
				r.Respond(plan, issueAt)
				r.Label(plan, tag)
			}
		}
		onDone := func() { retire.Done() }
		if r.coarse {
			// Software: the parent level starts, and the next request's
			// same-level access unblocks, only after this level's whole
			// access (including eviction writes) has been issued — the
			// coarse lock region of Palermo-SW.
			onDone = func() {
				if l > 0 {
					r.Eng.After(CPHopLat, leafReady[l-1].Fire)
				}
				myClear.Fire()
				retire.Done()
			}
		}
		sim.WaitAll(r.Eng, []*sim.Signal{leafReady[l], prevClear}, func() {
			r.execPE(la, 0, myClear, onRPDone, onDone)
		})
	}
}

// execPE walks one PE's phases. myClear fires once the tree-modifying
// phases' writes are issued (ER for non-evict requests, EP otherwise);
// onRP fires when the RP reads complete; done fires after the last phase.
func (r *meshRun) execPE(la oram.LevelAccess, idx int, myClear *sim.Signal, onRP, done func()) {
	if idx >= len(la.Phases) {
		if !myClear.Fired() {
			myClear.Fire() // safety: a plan without ER/EP still unblocks the east PE
		}
		done()
		return
	}
	ph := la.Phases[idx]
	afterReads := func() {
		advance := func() {
			r.Eng.After(ctrl.PipelineLat, func() { r.execPE(la, idx+1, myClear, onRP, done) })
		}
		if r.coarse && len(ph.Writes) > 0 {
			// Software commits its tree writes synchronously before the
			// next protocol step; hardware fire-and-forgets them into the
			// memory controller.
			wb := sim.NewBatch(r.Eng, len(ph.Writes))
			for _, w := range ph.Writes {
				r.Mem.Submit(&dram.Request{Addr: w, Write: true, OnDone: func(sim.Tick) { wb.Done() }})
			}
			if ph.Kind == oram.PhaseRP {
				onRP()
			}
			wb.Sig().Wait(advance)
			return
		}
		for _, w := range ph.Writes {
			r.Mem.Submit(&dram.Request{Addr: w, Write: true})
		}
		if !r.coarse {
			switch {
			case ph.Kind == oram.PhaseER && !la.Evict:
				myClear.Fire()
			case ph.Kind == oram.PhaseEP:
				myClear.Fire()
			case ph.Kind == oram.PhaseWB:
				// PathORAM plans: the unconditional write-back is the only
				// tree-modifying phase (§IV-E's PathORAM-mesh discussion).
				myClear.Fire()
			}
		}
		if ph.Kind == oram.PhaseRP {
			onRP()
		}
		advance()
	}
	if len(ph.Reads) == 0 {
		afterReads()
		return
	}
	batch := sim.NewBatch(r.Eng, len(ph.Reads))
	for _, a := range ph.Reads {
		r.Mem.Submit(&dram.Request{Addr: a, OnDone: func(sim.Tick) { batch.Done() }})
	}
	batch.Sig().Wait(afterReads)
}
