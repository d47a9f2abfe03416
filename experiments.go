package palermo

import (
	"fmt"
	"sort"
	"strings"

	"palermo/internal/core"
	"palermo/internal/ctrl"
	"palermo/internal/exp"
	"palermo/internal/hwmodel"
	"palermo/internal/oram"
	"palermo/internal/rng"
	"palermo/internal/security"
	"palermo/internal/stats"
	"palermo/internal/workload"
)

// This file regenerates every table and figure of the paper's evaluation
// (§III and §VIII). Each Fig*/Table* function declares its simulation grid
// (protocol × workload × sweep-point), submits the cells to the exp worker
// pool (sized by Options.Workers), and aggregates the collected results in
// grid order — so a parallel sweep produces bit-identical output to a
// serial one. Each function returns a result struct whose String method
// renders the figure as a text table; EXPERIMENTS.md records
// paper-vs-measured values.

// runner returns the sweep runner configured by Options.Workers.
func (o Options) runner() exp.Runner { return exp.Runner{Workers: o.Workers} }

// Fig3Workloads are the workloads the paper uses for the RingORAM analysis.
var Fig3Workloads = []string{"mcf", "pr", "llm", "rand"}

// Fig9Workloads are the workloads of the security/latency study.
var Fig9Workloads = []string{"mcf", "pr", "llm", "redis"}

// Fig3Result reproduces Fig 3: RingORAM bandwidth utilization per workload
// and the memory-cycle breakdown (dram vs ORAM-sync per hierarchy level).
type Fig3Result struct {
	Workloads []string
	Bandwidth []float64 // fraction of peak per workload
	// Breakdown fractions over total cycles, paper labels:
	// Pos2-dram, Pos2-sync, Pos1-dram, Pos1-sync, data-dram, data-sync.
	DramFrac []float64 // [level] aggregated across workloads
	SyncFrac []float64
	RowHit   float64
	QueueOcc float64
}

// Fig3 runs the analysis: one RingORAM cell per workload.
func Fig3(o Options) (Fig3Result, error) {
	res := Fig3Result{Workloads: Fig3Workloads, DramFrac: make([]float64, 3), SyncFrac: make([]float64, 3)}
	runs, err := exp.Map(o.runner(), len(Fig3Workloads), func(i int) (RunResult, error) {
		return Run(ProtoRingORAM, Fig3Workloads[i], o)
	})
	if err != nil {
		return res, err
	}
	var totalCycles float64
	var hit, qocc stats.Mean
	for _, r := range runs {
		res.Bandwidth = append(res.Bandwidth, r.Mem.BandwidthUtil)
		hit.Add(r.Mem.RowHitRate)
		qocc.Add(r.Mem.AvgQueueOcc * 4) // per-channel -> all channels
		for l, lc := range r.Levels {
			res.DramFrac[l] += float64(lc.Dram)
			res.SyncFrac[l] += float64(lc.Sync)
			totalCycles += float64(lc.Dram + lc.Sync)
		}
	}
	for l := 0; l < 3; l++ {
		res.DramFrac[l] /= totalCycles
		res.SyncFrac[l] /= totalCycles
	}
	res.RowHit = hit.Value()
	res.QueueOcc = qocc.Value()
	return res, nil
}

// SyncTotal returns the aggregate ORAM-sync share (paper: 72.4%).
func (r Fig3Result) SyncTotal() float64 {
	var s float64
	for _, v := range r.SyncFrac {
		s += v
	}
	return s
}

// String renders the figure.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3a — RingORAM bandwidth utilization (paper: <30%%, homogeneous)\n")
	for i, wl := range r.Workloads {
		fmt.Fprintf(&b, "  %-6s %5.1f%%\n", wl, r.Bandwidth[i]*100)
	}
	fmt.Fprintf(&b, "Fig 3b — memory cycle breakdown (paper: sync 72.4%% total)\n")
	labels := []string{"data", "Pos1", "Pos2"}
	for l := 2; l >= 0; l-- {
		fmt.Fprintf(&b, "  %s-dram %5.1f%%  %s-sync %5.1f%%\n",
			labels[l], r.DramFrac[l]*100, labels[l], r.SyncFrac[l]*100)
	}
	fmt.Fprintf(&b, "  total sync %.1f%%, row-hit %.1f%% (paper 48.2%%), queue occ %.1f (paper 21.1)\n",
		r.SyncTotal()*100, r.RowHit*100, r.QueueOcc)
	return b.String()
}

// Fig4Result reproduces Fig 4: PrORAM and LAORAM (fat tree) on stm across
// prefetch lengths — normalized speedup and dummy-request ratio.
type Fig4Result struct {
	Lengths    []int
	PrSpeedup  []float64 // vs pf=1, plain PrORAM
	PrDummy    []float64
	FatSpeedup []float64 // vs pf=1, with fat tree (LAORAM)
	FatDummy   []float64
}

// Fig4 runs the sweep: the grid is {plain, fat-tree} × prefetch length.
func Fig4(o Options) (Fig4Result, error) {
	res := Fig4Result{Lengths: []int{1, 2, 4, 8, 16}}
	fats := []bool{false, true}
	runs, err := exp.Map2(o.runner(), len(fats), len(res.Lengths), func(f, p int) (RunResult, error) {
		oo := o
		oo.Prefetch = res.Lengths[p]
		return runPrORAM(oo, "stm", fats[f])
	})
	if err != nil {
		return res, err
	}
	var prBase, fatBase float64
	for f, fat := range fats {
		for p, pf := range res.Lengths {
			thr := runs[f][p].Throughput()
			dummy := runs[f][p].DummyFraction()
			if fat {
				if pf == 1 {
					fatBase = thr
				}
				res.FatSpeedup = append(res.FatSpeedup, thr/fatBase)
				res.FatDummy = append(res.FatDummy, dummy)
			} else {
				if pf == 1 {
					prBase = thr
				}
				res.PrSpeedup = append(res.PrSpeedup, thr/prBase)
				res.PrDummy = append(res.PrDummy, dummy)
			}
		}
	}
	return res, nil
}

// String renders the figure.
func (r Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4 — PrORAM/LAORAM on stm vs prefetch length (paper: dummy ratio caps scaling, LAORAM <= 3.2x)\n")
	fmt.Fprintf(&b, "  %-6s %14s %12s %14s %12s\n", "pf", "PrORAM speedup", "dummy%", "LAORAM speedup", "dummy%")
	for i, pf := range r.Lengths {
		fmt.Fprintf(&b, "  %-6d %13.2fx %11.1f%% %13.2fx %11.1f%%\n",
			pf, r.PrSpeedup[i], r.PrDummy[i]*100, r.FatSpeedup[i], r.FatDummy[i]*100)
	}
	return b.String()
}

// Fig9Row is one workload's security measurements (Fig 9 + its table).
type Fig9Row struct {
	Workload   string
	RowHit     float64
	BankConf   float64
	MutualInfo float64
	P1, P2     float64
	LatMedian  float64 // ticks
	LatP10     float64
	LatP90     float64
	LeafChi2P  float64 // uniformity p-value of the exposed leaf stream
	LeafCorr   float64
}

// Fig9Result reproduces Fig 9.
type Fig9Result struct{ Rows []Fig9Row }

// Fig9 runs the security analysis on Palermo, one cell per workload (the
// security analyses run inside the cell). The mutual-information estimate
// needs enough stash-resident observations to converge (the paper uses up
// to 50M requests), so the request count is floored at 2500.
func Fig9(o Options) (Fig9Result, error) {
	o.KeepLatency = true
	if o.Requests < 2500 {
		o.Requests = 2500
	}
	var res Fig9Result
	rows, err := exp.Map(o.runner(), len(Fig9Workloads), func(i int) (Fig9Row, error) {
		wl := Fig9Workloads[i]
		r, err := Run(ProtoPalermo, wl, o)
		if err != nil {
			return Fig9Row{}, err
		}
		tim, err := security.AnalyzeTiming(r.RespLat.Samples(), r.FromStash)
		if err != nil {
			return Fig9Row{}, err
		}
		leaf, err := security.AnalyzeLeaves(r.Leaves, r.NumLeaves, 64)
		if err != nil {
			return Fig9Row{}, err
		}
		return Fig9Row{
			Workload:   wl,
			RowHit:     r.Mem.RowHitRate,
			BankConf:   r.Mem.RowConflictRate,
			MutualInfo: tim.MutualInfo,
			P1:         tim.P1,
			P2:         tim.P2,
			LatMedian:  r.RespLat.Median(),
			LatP10:     r.RespLat.Percentile(10),
			LatP90:     r.RespLat.Percentile(90),
			LeafChi2P:  leaf.PValue,
			LeafCorr:   leaf.SerialCorr,
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// String renders the figure's table.
func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9 — attacker observations on Palermo (paper: row-hit ~59.5%%, conflict ~37.9%%, MI ~0)\n")
	fmt.Fprintf(&b, "  %-6s %8s %9s %12s %8s %8s %16s %9s\n",
		"wl", "rowhit%", "conflict%", "mutual-info", "p1", "p2", "latency p10/p90", "leaf-p")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-6s %7.1f%% %8.1f%% %12.2g %8.3f %8.3f %7.0f/%-8.0f %9.3f\n",
			row.Workload, row.RowHit*100, row.BankConf*100, row.MutualInfo,
			row.P1, row.P2, row.LatP10, row.LatP90, row.LeafChi2P)
	}
	return b.String()
}

// Fig10Result reproduces Fig 10: end-to-end speedup of every design over
// PathORAM on every Table II workload, plus the geometric mean.
type Fig10Result struct {
	Workloads []string
	Protocols []Protocol
	// Speedup[p][w] is protocol p's throughput over PathORAM's on workload w.
	Speedup [][]float64
	GMean   []float64
	// BestPF[w] is the swept prefetch length used by PrORAM and Palermo+PF.
	BestPF []int
	// AbsMissesPerSec[p] averages the absolute service rate (paper §VIII-A:
	// Palermo 3.8E6 vs RingORAM 1.7E6).
	AbsMissesPerSec []float64
}

// fig10PFSweep is the per-workload prefetch sweep of the paper's
// methodology (§VIII-A).
var fig10PFSweep = []int{1, 2, 4, 8}

// Fig10 runs the full comparison in two parallel phases. Phase 1 submits,
// per workload, the PathORAM baseline and the PrORAM prefetch sweep; the
// best prefetch length is then selected in sweep order (ties to the
// shorter length, exactly as a serial scan would). Phase 2 submits the
// remaining protocol × workload cells, reusing the phase-1 results for
// PathORAM and PrORAM and giving Palermo+PF the swept length, matching the
// paper's methodology.
func Fig10(o Options) (Fig10Result, error) {
	res := Fig10Result{Workloads: workload.Names(), Protocols: Protocols()}
	res.Speedup = make([][]float64, len(res.Protocols))
	res.AbsMissesPerSec = make([]float64, len(res.Protocols))
	for i := range res.Speedup {
		res.Speedup[i] = make([]float64, len(res.Workloads))
	}

	// Phase 1: per workload, col 0 is the PathORAM baseline and cols 1..
	// are the PrORAM sweep points.
	sweep, err := exp.Map2(o.runner(), len(res.Workloads), 1+len(fig10PFSweep),
		func(w, c int) (RunResult, error) {
			if c == 0 {
				return Run(ProtoPathORAM, res.Workloads[w], o)
			}
			oo := o
			oo.Prefetch = fig10PFSweep[c-1]
			return Run(ProtoPrORAM, res.Workloads[w], oo)
		})
	if err != nil {
		return res, err
	}
	for w := range res.Workloads {
		bestPF, bestThr := 1, 0.0
		for i, pf := range fig10PFSweep {
			if thr := sweep[w][1+i].Throughput(); thr > bestThr {
				bestThr, bestPF = thr, pf
			}
		}
		res.BestPF = append(res.BestPF, bestPF)
	}

	// Phase 2: the remaining protocol grid. PathORAM and PrORAM reuse
	// their phase-1 cells (identical configuration => identical result).
	grid, err := exp.Map2(o.runner(), len(res.Workloads), len(res.Protocols),
		func(w, p int) (RunResult, error) {
			proto := res.Protocols[p]
			switch proto {
			case ProtoPathORAM:
				return sweep[w][0], nil
			case ProtoPrORAM:
				for i, pf := range fig10PFSweep {
					if pf == res.BestPF[w] {
						return sweep[w][1+i], nil
					}
				}
			}
			oo := o
			if proto == ProtoPalermoPF {
				oo.Prefetch = res.BestPF[w]
			}
			return Run(proto, res.Workloads[w], oo)
		})
	if err != nil {
		return res, err
	}
	for w := range res.Workloads {
		base := grid[w][0].Throughput()
		for p := range res.Protocols {
			res.Speedup[p][w] = grid[w][p].Throughput() / base
			res.AbsMissesPerSec[p] += grid[w][p].MissesPerSecond() / float64(len(res.Workloads))
		}
	}
	for p := range res.Protocols {
		res.GMean = append(res.GMean, stats.GeoMean(res.Speedup[p]))
	}
	return res, nil
}

// String renders the figure.
func (r Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10 — end-to-end speedup over PathORAM (paper gmeans: Ring 1.1, Page 1.2, PrORAM 1.7, IR 1.1, SW 1.2, Palermo 2.4, +PF 3.1)\n")
	fmt.Fprintf(&b, "  %-11s", "protocol")
	for _, wl := range r.Workloads {
		fmt.Fprintf(&b, "%7s", wl)
	}
	fmt.Fprintf(&b, "%7s %12s\n", "gmean", "Mmiss/s")
	for p, proto := range r.Protocols {
		fmt.Fprintf(&b, "  %-11s", proto)
		for w := range r.Workloads {
			fmt.Fprintf(&b, "%6.2fx", r.Speedup[p][w])
		}
		fmt.Fprintf(&b, "%6.2fx %12.2f\n", r.GMean[p], r.AbsMissesPerSec[p]/1e6)
	}
	fmt.Fprintf(&b, "  swept prefetch per workload: %v\n", r.BestPF)
	return b.String()
}

// Fig11Result reproduces Fig 11: bandwidth utilization and outstanding
// DRAM requests, RingORAM vs Palermo (no prefetch).
type Fig11Result struct {
	Workloads []string
	RingBW    []float64
	PalBW     []float64
	RingOut   []float64
	PalOut    []float64
}

// Fig11 runs the comparison: the grid is workload × {RingORAM, Palermo}.
func Fig11(o Options) (Fig11Result, error) {
	res := Fig11Result{Workloads: Fig9Workloads}
	protos := []Protocol{ProtoRingORAM, ProtoPalermo}
	runs, err := exp.Map2(o.runner(), len(Fig9Workloads), len(protos), func(w, p int) (RunResult, error) {
		return Run(protos[p], Fig9Workloads[w], o)
	})
	if err != nil {
		return res, err
	}
	for w := range Fig9Workloads {
		ring, pal := runs[w][0], runs[w][1]
		res.RingBW = append(res.RingBW, ring.Mem.BandwidthUtil)
		res.PalBW = append(res.PalBW, pal.Mem.BandwidthUtil)
		res.RingOut = append(res.RingOut, ring.Mem.AvgQueueOcc*4)
		res.PalOut = append(res.PalOut, pal.Mem.AvgQueueOcc*4)
	}
	return res, nil
}

// Ratios returns the average outstanding and bandwidth improvement factors
// (paper: 2.8x outstanding, 2.2x bandwidth).
func (r Fig11Result) Ratios() (outRatio, bwRatio float64) {
	var or, br stats.Mean
	for i := range r.Workloads {
		or.Add(r.PalOut[i] / r.RingOut[i])
		br.Add(r.PalBW[i] / r.RingBW[i])
	}
	return or.Value(), br.Value()
}

// String renders the figure.
func (r Fig11Result) String() string {
	var b strings.Builder
	outR, bwR := r.Ratios()
	fmt.Fprintf(&b, "Fig 11 — bandwidth + outstanding DRAM requests, Ring vs Palermo (paper: 2.8x outstanding -> 2.2x bandwidth)\n")
	fmt.Fprintf(&b, "  %-6s %10s %10s %12s %12s\n", "wl", "Ring BW", "Palermo BW", "Ring outst.", "Pal outst.")
	for i, wl := range r.Workloads {
		fmt.Fprintf(&b, "  %-6s %9.1f%% %9.1f%% %12.1f %12.1f\n",
			wl, r.RingBW[i]*100, r.PalBW[i]*100, r.RingOut[i], r.PalOut[i])
	}
	fmt.Fprintf(&b, "  ratios: outstanding %.1fx, bandwidth %.1fx\n", outR, bwR)
	return b.String()
}

// Fig12Result reproduces Fig 12: Palermo stash occupancy over execution.
type Fig12Result struct {
	Workloads []string
	Samples   [][]int // per workload: data-level stash size per 1% progress
	Max       []int
}

// Fig12 runs the stash study, one Palermo cell per workload.
func Fig12(o Options) (Fig12Result, error) {
	o.TrackStash = true
	var res Fig12Result
	runs, err := exp.Map(o.runner(), len(Fig9Workloads), func(i int) (RunResult, error) {
		return Run(ProtoPalermo, Fig9Workloads[i], o)
	})
	if err != nil {
		return res, err
	}
	for i, r := range runs {
		res.Workloads = append(res.Workloads, Fig9Workloads[i])
		res.Samples = append(res.Samples, r.StashTrace[0])
		res.Max = append(res.Max, r.StashMax[0])
	}
	return res, nil
}

// String renders the figure.
func (r Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12 — Palermo stash occupancy (paper: bounded, max 228-237 < 256)\n")
	for i, wl := range r.Workloads {
		fmt.Fprintf(&b, "  %-6s max=%d samples(head)=%v\n", wl, r.Max[i], head(r.Samples[i], 8))
	}
	return b.String()
}

func head(s []int, n int) []int {
	if len(s) < n {
		return s
	}
	return s[:n]
}

// Fig13Result reproduces Fig 13: Palermo prefetch-length sensitivity.
type Fig13Result struct {
	Workloads []string
	Lengths   []int
	// Speedup[w][i] is Palermo at Lengths[i] vs PathORAM on workload w.
	Speedup [][]float64
}

// Fig13 runs the sweep: per workload, col 0 is the PathORAM baseline and
// cols 1.. are the Palermo+PF prefetch points.
func Fig13(o Options) (Fig13Result, error) {
	res := Fig13Result{Workloads: Fig9Workloads, Lengths: []int{1, 2, 4, 8}}
	runs, err := exp.Map2(o.runner(), len(res.Workloads), 1+len(res.Lengths),
		func(w, c int) (RunResult, error) {
			if c == 0 {
				return Run(ProtoPathORAM, res.Workloads[w], o)
			}
			oo := o
			oo.Prefetch = res.Lengths[c-1]
			return Run(ProtoPalermoPF, res.Workloads[w], oo)
		})
	if err != nil {
		return res, err
	}
	for w := range res.Workloads {
		base := runs[w][0].Throughput()
		var row []float64
		for i := range res.Lengths {
			row = append(row, runs[w][1+i].Throughput()/base)
		}
		res.Speedup = append(res.Speedup, row)
	}
	return res, nil
}

// String renders the figure.
func (r Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13 — Palermo prefetch sensitivity vs PathORAM (paper: moderate for mcf/pr/redis; llm rises with row length)\n")
	fmt.Fprintf(&b, "  %-6s", "wl")
	for _, pf := range r.Lengths {
		fmt.Fprintf(&b, "  pf=%-4d", pf)
	}
	fmt.Fprintln(&b)
	for i, wl := range r.Workloads {
		fmt.Fprintf(&b, "  %-6s", wl)
		for _, v := range r.Speedup[i] {
			fmt.Fprintf(&b, " %6.2fx", v)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ZSASweep lists the valid (Z,S,A) points of Fig 14a, from the RingORAM
// parameterization.
var ZSASweep = [][3]int{{4, 5, 3}, {8, 12, 8}, {16, 27, 20}, {32, 56, 42}}

// Fig14aResult reproduces Fig 14a: Palermo speedup vs protocol parameters.
type Fig14aResult struct {
	ZSA     [][3]int
	Speedup []float64 // vs the (4,5,3) point
	Stash   []int
}

// Fig14a runs the sweep on rand, one cell per (Z,S,A) point.
func Fig14a(o Options) (Fig14aResult, error) {
	res := Fig14aResult{ZSA: ZSASweep}
	runs, err := exp.Map(o.runner(), len(ZSASweep), func(i int) (RunResult, error) {
		oo := o
		oo.Z, oo.S, oo.A = ZSASweep[i][0], ZSASweep[i][1], ZSASweep[i][2]
		return Run(ProtoPalermo, "rand", oo)
	})
	if err != nil {
		return res, err
	}
	base := runs[0].Throughput()
	for _, r := range runs {
		res.Speedup = append(res.Speedup, r.Throughput()/base)
		res.Stash = append(res.Stash, r.StashMax[0])
	}
	return res, nil
}

// String renders the figure.
func (r Fig14aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14a — Palermo (Z,S,A) sweep on rand (paper: up to 1.8x over (4,5,3); adopts (16,27,20))\n")
	for i, zsa := range r.ZSA {
		fmt.Fprintf(&b, "  Z=%-3d S=%-3d A=%-3d  %5.2fx  stash max %d\n",
			zsa[0], zsa[1], zsa[2], r.Speedup[i], r.Stash[i])
	}
	return b.String()
}

// Fig14bResult reproduces Fig 14b: Palermo speedup vs PE column count.
type Fig14bResult struct {
	Columns []int
	Speedup []float64 // vs 1 column
	BW      []float64
}

// Fig14b runs the sweep on rand, one cell per column count.
func Fig14b(o Options) (Fig14bResult, error) {
	res := Fig14bResult{Columns: []int{1, 2, 4, 8, 16, 32}}
	runs, err := exp.Map(o.runner(), len(res.Columns), func(i int) (RunResult, error) {
		oo := o
		oo.Columns = res.Columns[i]
		return Run(ProtoPalermo, "rand", oo)
	})
	if err != nil {
		return res, err
	}
	base := runs[0].Throughput()
	for _, r := range runs {
		res.Speedup = append(res.Speedup, r.Throughput()/base)
		res.BW = append(res.BW, r.Mem.BandwidthUtil)
	}
	return res, nil
}

// String renders the figure.
func (r Fig14bResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14b — Palermo PE-column sweep on rand (paper: saturates near 3x8 PEs at ~2.2x over 3x1)\n")
	for i, c := range r.Columns {
		fmt.Fprintf(&b, "  3x%-3d %5.2fx  BW %5.1f%%\n", c, r.Speedup[i], r.BW[i]*100)
	}
	return b.String()
}

// Fig15 reproduces the area/power table via the analytical model.
func Fig15(columns int) hwmodel.Model { return hwmodel.New(columns) }

// TableII renders the workload registry.
func TableII() string {
	desc := map[string]string{
		"mcf": "SPEC17 route planning", "lbm": "SPEC17 fluid dynamics",
		"pr": "PageRank on power-law graph", "motif": "temporal motif mining",
		"rm1": "DLRM memory-bound embedding gathers", "rm2": "DLRM balanced",
		"llm": "GPT-2 token embedding rows", "redis": "Zipfian KV access",
		"stm": "synthetic streaming", "rand": "synthetic uniform random",
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — real-world services that demand obliviousness\n")
	for _, wl := range workload.Names() {
		fmt.Fprintf(&b, "  %-6s %s\n", wl, desc[wl])
	}
	return b.String()
}

// TableIII renders the modeled system configuration.
func TableIII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — Palermo system configuration\n")
	rows := [][2]string{
		{"Protected memory space", "16 GB user data (2^28 cache lines)"},
		{"Hierarchy", "Data + PosMap1 + PosMap2 ORAM trees, PosMap3 on-chip"},
		{"Tree-top caches", "256 KB per level"},
		{"Stash", "bounded 256 tags per level"},
		{"Protocol parameters", "(Z,S,A) = (16,27,20), RingORAM baseline same"},
		{"PE layout", "3 rows x 8 columns at 1.6 GHz"},
		{"Outsourced DRAM", "4-channel DDR4-3200, 102.4 GB/s peak"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %s\n", r[0], r[1])
	}
	return b.String()
}

// AblationResult quantifies one design choice called out in DESIGN.md.
type AblationResult struct {
	Name     string
	Baseline float64 // throughput without the feature
	With     float64 // throughput with the feature
}

// Gain returns the feature's speedup.
func (a AblationResult) Gain() float64 {
	if a.Baseline == 0 {
		return 0
	}
	return a.With / a.Baseline
}

// String renders the ablation row.
func (a AblationResult) String() string {
	return fmt.Sprintf("ablation %-22s %.2fx", a.Name, a.Gain())
}

// ablationPair runs the {baseline, with-feature} arms of an ablation as a
// two-cell grid: arm builds one arm's controller and engine from the
// defaulted options.
func ablationPair(o Options, name string, arm func(o Options, with bool) (ctrl.Controller, oram.Engine, error)) (AblationResult, error) {
	if err := o.defaults(); err != nil {
		return AblationResult{}, err
	}
	thr, err := exp.Map(o.runner(), 2, func(i int) (float64, error) {
		ctl, e, err := arm(o, i == 1)
		if err != nil {
			return 0, err
		}
		return randCell(o, ctl, e)
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: name, Baseline: thr[0], With: thr[1]}, nil
}

// randCell is an ablation arm's cell: ctl replays e's plans for the rand
// workload. It returns the measured throughput.
func randCell(o Options, ctl ctrl.Controller, e oram.Engine) (float64, error) {
	gen, err := workload.New("rand", o.Lines, o.Seed)
	if err != nil {
		return 0, err
	}
	return runCell(ctl, e, gen, ctrl.RunConfig{Requests: o.Requests, Warmup: o.Warmup}).Throughput(), nil
}

// AblationHoisting measures Algorithm 2's EarlyReshuffle hoisting: the PE
// mesh running baseline-ordered RingORAM plans (reshuffle after the read
// path) against the Palermo ordering (reshuffle hoisted before it). The
// hoisting is what releases the west→east dependency early (§IV-B).
func AblationHoisting(o Options) (AblationResult, error) {
	return ablationPair(o, "ER hoisting (Alg 2)", func(o Options, with bool) (ctrl.Controller, oram.Engine, error) {
		cfg := oram.PalermoRingConfig()
		cfg.NLines = o.Lines
		cfg.Seed = o.Seed
		cfg.Variant = oram.VariantBaseline
		if with {
			cfg.Variant = oram.VariantPalermo
		}
		e, err := oram.NewRing(cfg)
		return core.Mesh{Name: "mesh", Columns: o.Columns}, e, err
	})
}

// AblationTreeTop measures the tree-top cache: Palermo with the Table III
// 256 KB per-level scratchpad against no cache at all.
func AblationTreeTop(o Options) (AblationResult, error) {
	return ablationPair(o, "tree-top cache 256KB", func(o Options, with bool) (ctrl.Controller, oram.Engine, error) {
		cfg := oram.PalermoRingConfig()
		cfg.NLines = o.Lines
		cfg.Seed = o.Seed
		cfg.TreeTopBytes = 1 // 1 byte: caches nothing
		if with {
			cfg.TreeTopBytes = 256 << 10
		}
		e, err := oram.NewRing(cfg)
		return core.Mesh{Name: "mesh", Columns: o.Columns}, e, err
	})
}

// AblationCommitGranularity compares Palermo-SW modelled two ways: the
// serial coarse-lock software (the paper's Palermo-SW) against a
// hypothetical fine-grained software with per-level clears and synchronous
// writes — an upper bound on what software-only synchronization could
// reach, showing how much of Palermo's gain requires the hardware mesh.
func AblationCommitGranularity(o Options) (AblationResult, error) {
	return ablationPair(o, "fine-grained SW sync", func(o Options, fine bool) (ctrl.Controller, oram.Engine, error) {
		e, err := buildPalermoRing(o, 1)
		if fine {
			return core.Mesh{Name: "sw-fine", Columns: o.Columns, SoftwareCoarse: true}, e, err
		}
		return ctrl.Serial{Name: "sw-coarse", OverlapDataRP: true}, e, err
	})
}

// AblationPathMesh tests §IV-E's claim that applying the Palermo mesh
// strategy to PathORAM gains little: PathORAM has no access-exclusivity
// guarantee, so the whole write-back serializes same-level requests, and
// its traffic has few dependency bubbles to begin with. Returns the mesh's
// gain over the serial controller for PathORAM and, for contrast, for
// RingORAM (the Palermo protocol). All four arms run as one grid.
func AblationPathMesh(o Options) (pathGain, ringGain AblationResult, err error) {
	if err := o.defaults(); err != nil {
		return pathGain, ringGain, err
	}
	thr, err := exp.Map(o.runner(), 4, func(i int) (float64, error) {
		if i >= 2 {
			r, err := Run([]Protocol{ProtoRingORAM, ProtoPalermo}[i-2], "rand", o)
			return r.Throughput(), err
		}
		e, err := buildPathFamily(ProtoPathORAM, o, 1)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			return randCell(o, ctrl.Serial{Name: "path-serial"}, e)
		}
		return randCell(o, core.Mesh{Name: "path-mesh", Columns: o.Columns}, e)
	})
	if err != nil {
		return pathGain, ringGain, err
	}
	pathGain = AblationResult{Name: "mesh on PathORAM", Baseline: thr[0], With: thr[1]}
	ringGain = AblationResult{Name: "mesh on RingORAM", Baseline: thr[2], With: thr[3]}
	return pathGain, ringGain, nil
}

// TenantReport is the multi-process isolation analysis of §VI: several
// co-located tenants share the Palermo controller; obliviousness requires
// that response latency reveals nothing about which tenant issued a
// request.
type TenantReport struct {
	Tenants    []string
	Medians    []float64 // per-tenant median response latency, ticks
	MutualInfo float64   // bits between (tenant == Tenants[0]) and latency
	Padding    uint64    // dummy requests injected to hold the issue rate
}

// String renders the report.
func (r TenantReport) String() string {
	s := fmt.Sprintf("tenant isolation: MI=%.3g bits, %d padding dummies\n", r.MutualInfo, r.Padding)
	for i, name := range r.Tenants {
		s += fmt.Sprintf("  %-8s median latency %.0f ticks\n", name, r.Medians[i])
	}
	return s
}

// TenantIsolation runs two tenants with very different native behaviour
// (llm's streaming rows vs redis's scattered keys) through one Palermo
// controller, with a bursty front end forcing constant-rate dummy padding,
// and measures whether latency leaks tenant identity. This is a single
// simulation cell (the tenants share one engine), so it does not fan out.
func TenantIsolation(o Options) (TenantReport, error) {
	if err := o.defaults(); err != nil {
		return TenantReport{}, err
	}
	o.KeepLatency = true
	if o.Requests < 2000 {
		o.Requests = 2000
	}
	names := []string{"llm", "redis"}
	var gens []workload.Generator
	for _, n := range names {
		g, err := workload.New(n, o.Lines, o.Seed)
		if err != nil {
			return TenantReport{}, err
		}
		gens = append(gens, g)
	}
	mix := workload.NewTenants(rng.New(o.Seed^0x7e4a47), gens...)
	src := workload.NewBursty(mix, 3, 4) // 75% duty: padding required

	e, err := buildPalermoRing(o, 1)
	if err != nil {
		return TenantReport{}, err
	}
	res := runCell(core.Mesh{Name: "palermo", Columns: o.Columns}, e, src,
		ctrl.RunConfig{Requests: o.Requests, Warmup: o.Warmup, KeepLatency: true})

	lat := res.RespLat.Samples()
	if len(lat) != len(res.Tags) {
		return TenantReport{}, fmt.Errorf("palermo: %d latencies vs %d tags", len(lat), len(res.Tags))
	}
	isFirst := make([]bool, len(res.Tags))
	var perTenant [2][]float64
	for i, tg := range res.Tags {
		isFirst[i] = tg == 0
		if tg >= 0 && tg < 2 {
			perTenant[tg] = append(perTenant[tg], lat[i])
		}
	}
	tim, err := security.AnalyzeTiming(lat, isFirst)
	if err != nil {
		return TenantReport{}, err
	}
	rep := TenantReport{Tenants: names, MutualInfo: tim.MutualInfo, Padding: res.Dummies}
	for t := 0; t < 2; t++ {
		rep.Medians = append(rep.Medians, median(perTenant[t]))
	}
	return rep, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := make([]float64, len(v))
	copy(s, v)
	sort.Float64s(s)
	return s[len(s)/2]
}

// runPrORAM is the Fig 4 helper that selects the plain or fat-tree variant.
func runPrORAM(o Options, wl string, fatTree bool) (RunResult, error) {
	o.noFatTree = !fatTree
	return Run(ProtoPrORAM, wl, o)
}
