// Package ctrl contains the timing controllers that replay functional
// access plans (internal/oram) against the DRAM model under each protocol's
// concurrency discipline, plus the measurement window and types every
// controller shares.
//
// The baseline Serial controller implements the discipline the paper
// measures in §III-A: ORAM requests are served strictly one after another,
// hierarchy levels in order, and within a level each phase's reads must
// complete before the next phase starts (writes are issued without waiting
// for commit). The stall cycles this produces are the "ORAM-sync" overhead
// of Fig 3b. The Palermo PE-mesh controller lives in internal/core.
package ctrl

import (
	"fmt"

	"palermo/internal/dram"
	"palermo/internal/oram"
	"palermo/internal/sim"
	"palermo/internal/stats"
)

// Source supplies the LLC-miss stream an ORAM controller serves. Next
// returns the missing cache-line PA and whether the miss is a store.
type Source interface {
	Next() (pa uint64, write bool)
}

// FuncSource adapts a function to Source.
type FuncSource func() (uint64, bool)

// Next implements Source.
func (f FuncSource) Next() (uint64, bool) { return f() }

// IdleSource is an optional Source extension for front ends that sometimes
// have no pending miss. When Idle reports true the controller issues a
// padding dummy ORAM request instead of consuming the trace, keeping the
// issue rate constant so the bus reveals nothing about demand (§VI).
type IdleSource interface {
	Source
	Idle() bool
}

// TaggedSource is an optional Source extension that labels each miss with
// an origin (e.g. a tenant/process id) for isolation analysis (§VI's
// multi-process discussion). Tag reports the label of the most recent Next.
type TaggedSource interface {
	Source
	Tag() int
}

// LevelCycles attributes one hierarchy level's wall time between DRAM-active
// work and protocol synchronization stalls (Fig 3b).
type LevelCycles struct {
	Dram sim.Tick
	Sync sim.Tick
}

// Result summarizes one timing-simulation run over the measured (post-
// warmup) window.
type Result struct {
	Protocol    string
	Requests    uint64 // ORAM requests measured
	ServedLines uint64 // LLC misses serviced (> Requests when prefetch filters)
	Dummies     uint64 // background/padding ORAM requests
	Cycles      sim.Tick
	Mem         dram.Snapshot
	Levels      []LevelCycles
	RespLat     *stats.Histogram // data-response latency per request, ticks
	FromStash   []bool           // per measured request: Table I behaviour B
	Leaves      []uint64         // per measured request: exposed data leaf (KeepLatency)
	Tags        []int            // per measured request: TaggedSource label (KeepLatency)
	StashMax    []int            // per level peak stash tags
	StashOver   []uint64         // per level insertions beyond the 256-tag budget
	StashTrace  [][]int          // per level occupancy samples over progress
	PlanReads   uint64           // DRAM reads generated by plans
	PlanWrites  uint64
}

// MissesPerSecond returns served LLC misses per wall-clock second at the
// 1.6 GHz controller clock (the paper's absolute metric in §VIII-A).
func (r Result) MissesPerSecond() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.ServedLines) / (sim.TickNS(r.Cycles) * 1e-9)
}

// Throughput returns served LLC misses per tick (the basis of all relative
// speedups: workloads are fully DRAM-bound under ORAM, §VIII-A).
func (r Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.ServedLines) / float64(r.Cycles)
}

// SyncFraction returns the ORAM-sync share of total level cycles.
func (r Result) SyncFraction() float64 {
	var dramT, syncT sim.Tick
	for _, lc := range r.Levels {
		dramT += lc.Dram
		syncT += lc.Sync
	}
	if dramT+syncT == 0 {
		return 0
	}
	return float64(syncT) / float64(dramT+syncT)
}

// DummyFraction returns the share of ORAM requests that were dummies.
func (r Result) DummyFraction() float64 {
	total := r.Requests + r.Dummies
	if total == 0 {
		return 0
	}
	return float64(r.Dummies) / float64(total)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d req in %d ticks (%.2fM miss/s, BW %.1f%%, sync %.1f%%)",
		r.Protocol, r.Requests, r.Cycles, r.MissesPerSecond()/1e6,
		r.Mem.BandwidthUtil*100, r.SyncFraction()*100)
}

// RunConfig controls a timing run.
type RunConfig struct {
	Requests    int // measured ORAM requests
	Warmup      int // ORAM requests before stats reset (paper: half of total)
	KeepLatency bool
	TrackStash  bool

	// DummyPolicy, when non-nil, is consulted before each real request; if
	// it returns true a background dummy ORAM request is issued instead
	// (PrORAM's stash-pressure eviction, §III-B). A real request proceeds
	// after at most 64 consecutive dummies.
	DummyPolicy func() bool

	// OnMeasureStart fires when the warmup window ends (harness hooks for
	// trace-side counters such as prefetch-filter hits).
	OnMeasureStart func()
}

// PipelineLat is the fixed FSM/decrypt latency between phases.
const PipelineLat sim.Tick = 4

// SampleEvery is the stash sampling period in requests: about 100 samples
// over the measured window.
func (c RunConfig) SampleEvery() uint64 { return uint64(c.Requests/100 + 1) }

// Controller is a timing discipline: it replays an ORAM engine's plans for
// a miss stream against the DRAM model and returns measurements over the
// post-warmup window. The engine, memory and ORAM engine must be fresh.
type Controller interface {
	Run(eng *sim.Engine, mem *dram.Memory, oramE oram.Engine, src Source, cfg RunConfig) Result
}

// Window is the measurement every controller shares. It holds a run's
// inputs and Result, commits each next request (Next), and fills the end
// of the run; a controller embeds it and decides only when requests issue,
// overlap and complete.
type Window struct {
	Cfg  RunConfig
	Eng  *sim.Engine
	Mem  *dram.Memory
	ORAM oram.Engine
	Src  Source
	Res  Result

	Total     int      // real requests to issue: warmup + measured
	Issued    int      // real requests issued so far
	Measuring bool     // the warmup boundary has passed
	Start     sim.Tick // when it passed
	LastDone  sim.Tick // the last measured request's completion

	dummyStreak int // consecutive policy dummies
	padStreak   int // consecutive idle-padding dummies
}

// NewWindow returns the window of one run of the controller named name.
func NewWindow(name string, eng *sim.Engine, mem *dram.Memory, oramE oram.Engine, src Source, cfg RunConfig) Window {
	w := Window{
		Cfg: cfg, Eng: eng, Mem: mem, ORAM: oramE, Src: src,
		Total: cfg.Requests + cfg.Warmup,
		Res: Result{
			Protocol: name,
			Levels:   make([]LevelCycles, oramE.Levels()),
			RespLat:  stats.NewHistogram(256, 64),
		},
	}
	if cfg.KeepLatency {
		w.Res.RespLat.KeepSamples()
	}
	return w
}

// Next commits the next request at the current time and returns its plan,
// or nil once every real request has issued. Before the first request
// after warmup it opens the measured window, once per run: DRAM statistics
// and stash peaks restart and OnMeasureStart fires. The request is a
// padding dummy while an IdleSource is idle (at most 4096 in a row, a hang
// guard), a background dummy when the DummyPolicy asks (at most 64 in a
// row), and otherwise the source's next miss; tag is that miss's
// TaggedSource label, -1 for a dummy or an untagged source. A request
// committed in the measured window is booked in Res.
func (w *Window) Next() (plan *oram.Plan, tag int) {
	if !w.Measuring && w.Issued == w.Cfg.Warmup {
		w.Measuring, w.Start = true, w.Eng.Now()
		w.Mem.ResetStats()
		w.ORAM.ResetPeaks()
		if w.Cfg.OnMeasureStart != nil {
			w.Cfg.OnMeasureStart()
		}
	}
	if w.Issued >= w.Total {
		return nil, -1
	}
	tag = -1
	if w.padding() || w.policyDummy() {
		plan = w.ORAM.DummyAccess()
	} else {
		w.Issued++
		pa, write := w.Src.Next()
		plan = w.ORAM.Access(pa, write, pa^0x5bd1e995)
		if ts, ok := w.Src.(TaggedSource); ok {
			tag = ts.Tag()
		}
	}
	if w.Measuring {
		w.count(plan)
	}
	return plan, tag
}

// padding reports whether an idle source leaves this slot to a
// constant-rate padding dummy (§VI).
func (w *Window) padding() bool {
	if is, ok := w.Src.(IdleSource); ok && is.Idle() && w.padStreak < 4096 {
		w.padStreak++
		return true
	}
	w.padStreak = 0
	return false
}

// policyDummy reports whether a background dummy goes before the next
// real request: the DummyPolicy asks for one and fewer than 64 have gone
// in a row.
func (w *Window) policyDummy() bool {
	if w.Cfg.DummyPolicy != nil && w.dummyStreak < 64 && w.Cfg.DummyPolicy() {
		w.dummyStreak++
		return true
	}
	w.dummyStreak = 0
	return false
}

// count books a measured request's plan at issue.
func (w *Window) count(plan *oram.Plan) {
	w.Res.PlanReads += uint64(plan.Reads())
	w.Res.PlanWrites += uint64(plan.Writes())
	if plan.Dummy {
		w.Res.Dummies++
		return
	}
	w.Res.Requests++
	w.Res.ServedLines++
	if w.Cfg.TrackStash && w.Res.Requests%w.Cfg.SampleEvery() == 0 {
		w.ORAM.SampleStashes()
	}
}

// Label records a measured request's labels: its Table I behaviour and,
// with KeepLatency, its exposed data leaf and tag. A dummy has none. A
// controller whose requests can respond out of issue order labels them at
// response time, so labels stay aligned with latency samples.
func (w *Window) Label(plan *oram.Plan, tag int) {
	if plan.Dummy {
		return
	}
	w.Res.FromStash = append(w.Res.FromStash, plan.FromStash)
	if w.Cfg.KeepLatency {
		w.Res.Leaves = append(w.Res.Leaves, plan.DataLeaf)
		w.Res.Tags = append(w.Res.Tags, tag)
	}
}

// Respond records a measured response to a request issued at issuedAt:
// the end of the measured window and, for a real request, its latency. A
// dummy books no latency, so samples stay one per labelled request.
func (w *Window) Respond(plan *oram.Plan, issuedAt sim.Tick) {
	w.LastDone = w.Eng.Now()
	if !plan.Dummy {
		w.Res.RespLat.Add(float64(w.Eng.Now() - issuedAt))
	}
}

// Drive runs start now and the engine until no events remain, then
// returns the Result with the run's cycles, memory statistics and stash
// records filled in.
func (w *Window) Drive(start func()) Result {
	w.Eng.At(w.Eng.Now(), start)
	w.Eng.Run()
	if w.LastDone > w.Start {
		w.Res.Cycles = w.LastDone - w.Start
	}
	w.Res.Mem = w.Mem.Stats()
	for l := 0; l < w.ORAM.Levels(); l++ {
		w.Res.StashMax = append(w.Res.StashMax, w.ORAM.StashMax(l))
		w.Res.StashTrace = append(w.Res.StashTrace, w.ORAM.StashSamples(l))
		w.Res.StashOver = append(w.Res.StashOver, w.ORAM.StashOverflows(l))
	}
	return w.Res
}

// Serial runs the baseline one-request-at-a-time discipline.
type Serial struct {
	Name string
	// OverlapDataRP, when set, releases the serialization lock once the
	// data-level ReadPath has been issued, letting the next request's
	// pipeline overlap the in-flight data-path reads. This models
	// Palermo-SW: the protocol's inter-request overlap under coarse
	// software synchronization around the PosMap check (§IV-C).
	OverlapDataRP bool
}

type serialRun struct {
	Window
	overlapRP bool
	lastBus   sim.Tick
}

// Run implements Controller.
func (s Serial) Run(eng *sim.Engine, mem *dram.Memory, oramE oram.Engine, src Source, cfg RunConfig) Result {
	r := &serialRun{Window: NewWindow(s.Name, eng, mem, oramE, src, cfg), overlapRP: s.OverlapDataRP}
	return r.Drive(r.startNext)
}

func (r *serialRun) busDelta() sim.Tick {
	cur := r.Mem.BusBusy()
	d := cur - r.lastBus
	r.lastBus = cur
	return d
}

// attribute splits a measured level interval into dram vs sync cycles.
// Outside the window the bus is not tracked: lastBus starts at 0, which is
// where opening the window resets the DRAM statistics.
func (r *serialRun) attribute(level int, start sim.Tick) {
	if !r.Measuring {
		return
	}
	dur := r.Eng.Now() - start
	dramT := r.busDelta() / sim.Tick(r.Mem.Config().Channels)
	if dramT > dur {
		dramT = dur
	}
	r.Res.Levels[level].Dram += dramT
	r.Res.Levels[level].Sync += dur - dramT
}

func (r *serialRun) startNext() {
	plan, tag := r.Next()
	if plan == nil {
		return
	}
	if r.Measuring {
		r.Label(plan, tag)
	}
	r.execLevel(plan, r.ORAM.Levels()-1, r.Eng.Now())
}

func (r *serialRun) execLevel(plan *oram.Plan, level int, reqStart sim.Tick) {
	la := plan.Levels[level]
	start := r.Eng.Now()

	// Palermo-SW shortcut: at the data level of a non-evicting request, the
	// lock is released once the trailing ReadPath is issued, so the next
	// request overlaps the in-flight reads.
	if r.overlapRP && level == 0 && !la.Evict && len(la.Phases) > 0 &&
		la.Phases[len(la.Phases)-1].Kind == oram.PhaseRP {
		r.execPhase(la, 0, len(la.Phases)-1, func() {
			rp := la.Phases[len(la.Phases)-1]
			measured := r.Measuring
			batch := sim.NewBatch(r.Eng, len(rp.Reads))
			for _, a := range rp.Reads {
				r.Mem.Submit(&dram.Request{Addr: a, OnDone: func(sim.Tick) { batch.Done() }})
			}
			batch.Sig().Wait(func() {
				if measured {
					r.Respond(plan, reqStart)
				}
				r.attribute(level, start)
			})
			r.Eng.After(PipelineLat, r.startNext)
		})
		return
	}

	r.execPhase(la, 0, len(la.Phases), func() {
		r.attribute(level, start)
		if level > 0 {
			r.execLevel(plan, level-1, reqStart)
			return
		}
		if r.Measuring {
			r.Respond(plan, reqStart)
		}
		r.startNext()
	})
}

// execPhase issues phases [idx, end): each phase's reads complete before its
// writes fire, and the next phase follows after the pipeline latency.
func (r *serialRun) execPhase(la oram.LevelAccess, idx, end int, done func()) {
	if idx >= end {
		done()
		return
	}
	ph := la.Phases[idx]
	next := func() {
		for _, w := range ph.Writes {
			r.Mem.Submit(&dram.Request{Addr: w, Write: true})
		}
		r.Eng.After(PipelineLat, func() { r.execPhase(la, idx+1, end, done) })
	}
	if len(ph.Reads) == 0 {
		next()
		return
	}
	batch := sim.NewBatch(r.Eng, len(ph.Reads))
	for _, a := range ph.Reads {
		r.Mem.Submit(&dram.Request{Addr: a, OnDone: func(sim.Tick) { batch.Done() }})
	}
	batch.Sig().Wait(next)
}
