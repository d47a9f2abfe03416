// Package palermo is the public API of this repository: a from-scratch Go
// implementation of Palermo — the protocol-hardware co-design for oblivious
// memory from "Palermo: Improving the Performance of Oblivious Memory using
// Protocol-Hardware Co-Design" (HPCA 2025) — together with every baseline
// and substrate its evaluation depends on.
//
// The facade assembles, per protocol, a functional ORAM engine (real trees,
// stashes, recursive position maps), a timing controller (the baseline
// serial discipline or Palermo's PE mesh), a cycle-approximate DDR4-3200
// memory system, and a Table II workload generator, and runs them under one
// discrete-event simulation:
//
//	res, err := palermo.Run(palermo.ProtoPalermo, "llm", palermo.Options{})
//	fmt.Println(res.Result) // throughput, bandwidth, latencies, stash, ...
//
// Every figure and table of the paper's evaluation has a Fig*/Table*
// function in this package (see experiments.go; EXPERIMENTS.md records the
// paper-vs-measured values and README.md the quickstart). Multi-cell
// experiments fan out across a worker pool sized by Options.Workers with
// results collected in grid order, so a parallel sweep is bit-identical to
// a serial one.
package palermo

import (
	"fmt"

	"palermo/internal/baselines"
	"palermo/internal/core"
	"palermo/internal/ctrl"
	"palermo/internal/dram"
	"palermo/internal/oram"
	"palermo/internal/sim"
	"palermo/internal/workload"
)

// Protocol selects an ORAM design from the paper's evaluation (§VII-B).
type Protocol int

// Protocols, in the paper's Fig 10 order.
const (
	ProtoPathORAM  Protocol = iota // Stefanov et al., the normalization baseline
	ProtoRingORAM                  // Ren et al. (Z,S,A)=(4,5,3)
	ProtoPageORAM                  // Rajat et al.: sibling accesses, small buckets
	ProtoPrORAM                    // Yu et al. + LAORAM fat tree, swept prefetch
	ProtoIRORAM                    // Raoufi et al.: posmap bypass, mid-tree shrink
	ProtoPalermoSW                 // Palermo protocol, software-only sync
	ProtoPalermo                   // Palermo protocol + PE-mesh controller
	ProtoPalermoPF                 // Palermo with prefetch enabled
)

// Protocols lists all evaluated designs in Fig 10 order.
func Protocols() []Protocol {
	return []Protocol{
		ProtoPathORAM, ProtoRingORAM, ProtoPageORAM, ProtoPrORAM,
		ProtoIRORAM, ProtoPalermoSW, ProtoPalermo, ProtoPalermoPF,
	}
}

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoPathORAM:
		return "PathORAM"
	case ProtoRingORAM:
		return "RingORAM"
	case ProtoPageORAM:
		return "PageORAM"
	case ProtoPrORAM:
		return "PrORAM"
	case ProtoIRORAM:
		return "IR-ORAM"
	case ProtoPalermoSW:
		return "Palermo-SW"
	case ProtoPalermo:
		return "Palermo"
	case ProtoPalermoPF:
		return "Palermo+PF"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Options configures a run. The zero value reproduces the paper's Table III
// system at a laptop-scale request count.
type Options struct {
	Lines    uint64 // protected cache lines (default 2^28 = 16 GB)
	Requests int    // measured ORAM requests (default 1500)
	Warmup   int    // warmup requests (default = Requests, i.e. half the run)

	Prefetch int // group length for ProtoPrORAM / ProtoPalermoPF (default per workload)
	Columns  int // PE columns for Palermo (default 8, Table III)

	// Z, S, A override the RingORAM/Palermo protocol parameters
	// (default (4,5,3) for RingORAM, (16,27,20) for Palermo, Fig 14a).
	Z, S, A int

	Seed        uint64 // default 1
	KeepLatency bool   // retain per-request latencies and leaves
	TrackStash  bool   // record stash occupancy over progress (Fig 12)

	// Workers sizes the sweep runner's worker pool for multi-cell
	// experiments (the Fig*/Ablation* grids): 0 means all cores
	// (runtime.GOMAXPROCS), 1 forces serial execution. It only affects
	// wall-clock time — each cell owns a private engine, DRAM model, and
	// seeded RNG, and results are collected in grid order, so sweep
	// results are bit-identical at any worker count.
	Workers int

	// StashThreshold is PrORAM's background-eviction trigger (default 1024,
	// the Fig 4 configuration).
	StashThreshold int

	// LLCLines sizes the prefetch filter (default 131072 = Table III 8 MB L3).
	LLCLines uint64

	// noFatTree disables PrORAM's LAORAM fat-tree shape (Fig 4's plain
	// PrORAM series); set only by the experiment harness in this package.
	noFatTree bool
}

// defaults validates o and fills in every zero field's default.
func (o *Options) defaults() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Requests", o.Requests}, {"Warmup", o.Warmup}, {"Prefetch", o.Prefetch}, {"Columns", o.Columns},
		{"Z", o.Z}, {"S", o.S}, {"A", o.A}, {"StashThreshold", o.StashThreshold},
	} {
		if f.v < 0 {
			return fmt.Errorf("palermo: Options.%s is %d; want 0 (the default) or more", f.name, f.v)
		}
	}
	if o.Lines == 0 {
		o.Lines = 1 << 28
	}
	if o.Requests == 0 {
		o.Requests = 1500
	}
	if o.Warmup == 0 {
		o.Warmup = o.Requests
	}
	if o.Columns == 0 {
		o.Columns = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.StashThreshold == 0 {
		o.StashThreshold = 1024
	}
	if o.LLCLines == 0 {
		o.LLCLines = 131072
	}
	return nil
}

// DefaultPrefetch returns the prefetch length this harness uses for a
// workload when Options.Prefetch is 0: embedding workloads prefetch up to
// their row length, streaming workloads a DRAM-friendly burst, and
// low-locality workloads disable prefetch (the outcome of the paper's
// per-workload sweep in §VIII-A).
func DefaultPrefetch(wl string) int {
	if rows := workload.RowLines(wl); rows > 0 {
		if rows > 8 {
			return 8
		}
		return int(rows)
	}
	switch wl {
	case "stm":
		return 8
	case "lbm":
		return 4
	case "mcf":
		return 2
	default:
		return 1
	}
}

// RunResult couples a controller Result with run identity and trace-side
// counters.
type RunResult struct {
	ctrl.Result
	Protocol  Protocol
	Workload  string
	Prefetch  int
	NumLeaves uint64 // data-tree leaf count (for leaf-uniformity analysis)
	LLCHits   uint64 // trace accesses filtered by the LLC during measurement
}

// Run executes one protocol on one Table II workload and returns the
// measured window's results. Deterministic for a given Options.Seed.
func Run(p Protocol, wl string, o Options) (RunResult, error) {
	if err := o.defaults(); err != nil {
		return RunResult{}, err
	}
	gen, err := workload.New(wl, o.Lines, o.Seed)
	if err != nil {
		return RunResult{}, err
	}

	pf := 1
	if p == ProtoPrORAM || p == ProtoPalermoPF {
		pf = o.Prefetch
		if pf == 0 {
			pf = DefaultPrefetch(wl)
		}
	}
	filter := workload.NewPrefetchFilter(gen, pf, o.LLCLines)
	runCfg := ctrl.RunConfig{
		Requests:    o.Requests,
		Warmup:      o.Warmup,
		KeepLatency: o.KeepLatency,
		TrackStash:  o.TrackStash,
	}
	var hitsAtMeasure uint64
	runCfg.OnMeasureStart = func() { hitsAtMeasure = filter.Hits }

	var e oram.Engine
	var ctl ctrl.Controller = ctrl.Serial{Name: p.String()}
	switch p {
	case ProtoPathORAM, ProtoPageORAM, ProtoPrORAM, ProtoIRORAM:
		e, err = buildPathFamily(p, o, pf)
		if p == ProtoPrORAM {
			runCfg.DummyPolicy = baselines.StashThresholdPolicy(e, o.StashThreshold)
		}
	case ProtoRingORAM:
		cfg := oram.BandwidthRingConfig()
		cfg.NLines = o.Lines
		cfg.Seed = o.Seed
		applyZSA(&cfg, o)
		e, err = oram.NewRing(cfg)
	case ProtoPalermoSW:
		e, err = buildPalermoRing(o, 1)
		ctl = ctrl.Serial{Name: p.String(), OverlapDataRP: true}
	case ProtoPalermo, ProtoPalermoPF:
		e, err = buildPalermoRing(o, pf)
		ctl = core.Mesh{Name: p.String(), Columns: o.Columns}
	default:
		return RunResult{}, fmt.Errorf("palermo: unknown protocol %v", p)
	}
	if err != nil {
		return RunResult{}, err
	}

	res := RunResult{
		Result:    runCell(ctl, e, filter, runCfg),
		Protocol:  p,
		Workload:  wl,
		Prefetch:  pf,
		NumLeaves: e.Space(0).Geo.NumLeaves(),
	}
	res.LLCHits = filter.Hits - hitsAtMeasure
	res.ServedLines += res.LLCHits
	return res, nil
}

// runCell runs one simulation cell: ctl replays e's plans for src on a
// fresh event engine and DRAM model.
func runCell(ctl ctrl.Controller, e oram.Engine, src ctrl.Source, cfg ctrl.RunConfig) ctrl.Result {
	var eng sim.Engine
	return ctl.Run(&eng, dram.New(&eng, dram.DefaultConfig()), e, src, cfg)
}

// buildPathFamily constructs the PathORAM-based engines.
func buildPathFamily(p Protocol, o Options, pf int) (oram.Engine, error) {
	switch p {
	case ProtoPageORAM:
		return baselines.NewPageORAM(o.Lines, o.Seed)
	case ProtoPrORAM:
		return baselines.NewPrORAM(o.Lines, pf, !o.noFatTree, o.Seed)
	case ProtoIRORAM:
		return baselines.NewIRORAM(o.Lines, 4096, o.Seed)
	}
	cfg := oram.DefaultPathConfig()
	cfg.NLines = o.Lines
	cfg.Seed = o.Seed
	return oram.NewPath(cfg)
}

// buildPalermoRing constructs the Palermo-variant Ring engine.
func buildPalermoRing(o Options, pf int) (*oram.Ring, error) {
	cfg := oram.PalermoRingConfig()
	cfg.NLines = o.Lines
	cfg.Seed = o.Seed
	cfg.DataSlotLines = pf
	applyZSA(&cfg, o)
	return oram.NewRing(cfg)
}

func applyZSA(cfg *oram.RingConfig, o Options) {
	if o.Z > 0 {
		cfg.Z = o.Z
	}
	if o.S > 0 {
		cfg.S = o.S
	}
	if o.A > 0 {
		cfg.A = o.A
	}
}
