package palermo

// Cross-module integration tests: the simulator against the paper's own
// analytical model, the §VI extensions (constant-rate padding, tenant
// isolation), and end-to-end consistency checks that individual package
// tests cannot express.

import (
	"math"
	"testing"

	"palermo/internal/analytic"
	"palermo/internal/core"
	"palermo/internal/ctrl"
	"palermo/internal/dram"
	"palermo/internal/oram"
	"palermo/internal/rng"
	"palermo/internal/sim"
	"palermo/internal/workload"
)

// TestAnalyticMatchesSimulation reproduces the paper's §III-A cross-check
// in two parts: (1) the simulator satisfies Little's law exactly —
// outstanding reads equal read throughput times read latency — and (2) the
// paper-style occupancy/latency bandwidth estimate lands in the same
// ballpark as the measured utilization.
func TestAnalyticMatchesSimulation(t *testing.T) {
	r, err := Run(ProtoRingORAM, "rand", Options{Requests: 600})
	if err != nil {
		t.Fatal(err)
	}
	errL := analytic.LittleLawError(r.Mem.AvgReadsOut, r.Mem.Reads,
		uint64(r.Mem.Elapsed), r.Mem.AvgReadLatency)
	if errL > 0.08 {
		t.Fatalf("Little's law violated by %.1f%%: timing accounting inconsistent", errL*100)
	}

	// The paper's GB/s arithmetic (64B x outstanding / avg latency) with
	// measured inputs must reproduce the measured read bandwidth share.
	cfg := dram.DefaultConfig()
	est := analytic.BandwidthGBs(r.Mem.AvgReadsOut, r.Mem.AvgReadLatency*0.625) /
		cfg.PeakBandwidthGBs()
	readShare := float64(r.Mem.Reads) * 64 / (float64(r.Mem.Elapsed) * 0.625) /
		cfg.PeakBandwidthGBs()
	if est < readShare*0.9 || est > readShare*1.1 {
		t.Fatalf("paper-style estimate %.3f vs measured read share %.3f: out of band", est, readShare)
	}
	// And the two-class service model must explain most of the latency:
	// measured latency includes queueing, so it exceeds the service time.
	if r.Mem.AvgReadLatency*0.625 < analytic.ExpectedServiceNS(cfg, r.Mem.RowHitRate) {
		t.Fatal("measured latency below pure service time: timing model broken")
	}
}

func TestConstantRatePadding(t *testing.T) {
	// A bursty front end (3-of-4 duty) on the Palermo mesh: the controller
	// must pad idle slots with dummy ORAM requests, keeping total issue
	// volume constant. ~1/3 of real volume must appear as dummies.
	gen, err := workload.New("rand", 1<<24, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewBursty(gen, 3, 4)
	cfg := oram.PalermoRingConfig()
	cfg.NLines = 1 << 24
	e, err := oram.NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var eng sim.Engine
	mem := dram.New(&eng, dram.DefaultConfig())
	res := core.Mesh{Name: "palermo", Columns: 8}.Run(&eng, mem, e, src,
		ctrl.RunConfig{Requests: 600, Warmup: 300})
	if res.Requests != 600 {
		t.Fatalf("requests = %d", res.Requests)
	}
	ratio := float64(res.Dummies) / float64(res.Requests)
	if ratio < 0.2 || ratio > 0.5 {
		t.Fatalf("padding ratio = %.2f, want ~1/3 for a 3-of-4 duty cycle", ratio)
	}
}

func TestTenantIsolationEndToEnd(t *testing.T) {
	rep, err := TenantIsolation(Options{Requests: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MutualInfo > 0.05 {
		t.Fatalf("tenant identity leaks %.3g bits through latency", rep.MutualInfo)
	}
	if rep.Padding == 0 {
		t.Fatal("bursty mix must require padding")
	}
	// Per-tenant medians must be close: latency is tenant-independent.
	ratio := rep.Medians[0] / rep.Medians[1]
	if math.Abs(ratio-1) > 0.15 {
		t.Fatalf("tenant medians differ by %.0f%%: isolation broken", math.Abs(ratio-1)*100)
	}
}

func TestPathMeshGainsLittle(t *testing.T) {
	// §IV-E: the mesh strategy applied to PathORAM yields limited benefit;
	// applied to RingORAM (Palermo) it yields a large one.
	pathGain, ringGain, err := AblationPathMesh(Options{Requests: 400})
	if err != nil {
		t.Fatal(err)
	}
	if pathGain.Gain() > 1.4 {
		t.Fatalf("PathORAM mesh gain = %.2f, paper says limited (< RingORAM's)", pathGain.Gain())
	}
	if ringGain.Gain() < pathGain.Gain()+0.3 {
		t.Fatalf("RingORAM mesh gain %.2f must clearly exceed PathORAM's %.2f",
			ringGain.Gain(), pathGain.Gain())
	}
}

// TestMeshLabelAlignment guards the out-of-order completion fix: latency
// samples and their FromStash/Leaves/Tags labels must be captured together
// at response time, so the arrays always have equal length even when
// columns retire out of order.
func TestMeshLabelAlignment(t *testing.T) {
	r, err := Run(ProtoPalermo, "redis", Options{Lines: 1 << 22, Requests: 500, KeepLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	n := int(r.RespLat.N())
	if len(r.FromStash) != n || len(r.Leaves) != n {
		t.Fatalf("label arrays misaligned: %d latencies, %d stash labels, %d leaves",
			n, len(r.FromStash), len(r.Leaves))
	}
}

func runMeshWith(t *testing.T, src ctrl.Source) ctrl.Result {
	t.Helper()
	cfg := oram.PalermoRingConfig()
	cfg.NLines = 1 << 22
	e, err := oram.NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var eng sim.Engine
	mem := dram.New(&eng, dram.DefaultConfig())
	return core.Mesh{Name: "m", Columns: 8}.Run(&eng, mem, e, src,
		ctrl.RunConfig{Requests: 400, Warmup: 200})
}

// TestRefreshCostVisible: enabling refresh must cost a few percent of
// throughput, not nothing and not a collapse.
func TestRefreshCostVisible(t *testing.T) {
	run := func(refresh bool) float64 {
		gen, _ := workload.New("rand", 1<<22, 1)
		cfg := oram.PalermoRingConfig()
		cfg.NLines = 1 << 22
		e, _ := oram.NewRing(cfg)
		var eng sim.Engine
		dcfg := dram.DefaultConfig()
		if !refresh {
			dcfg.TREFI = 0
		}
		mem := dram.New(&eng, dcfg)
		res := core.Mesh{Name: "m", Columns: 8}.Run(&eng, mem, e,
			ctrl.FuncSource(func() (uint64, bool) { return gen.Next() }),
			ctrl.RunConfig{Requests: 500, Warmup: 250})
		return res.Throughput()
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("refresh must cost something: with=%.4g without=%.4g", with, without)
	}
	if with < without*0.85 {
		t.Fatalf("refresh cost too high: with=%.4g without=%.4g", with, without)
	}
}

// Property-style determinism check across the whole stack with tenants.
func TestTenantMixDeterminism(t *testing.T) {
	run := func() ctrl.Result {
		a, _ := workload.New("llm", 1<<22, 1)
		b, _ := workload.New("redis", 1<<22, 2)
		mix := workload.NewTenants(rng.New(7), a, b)
		return runMeshWith(t, mix)
	}
	r1, r2 := run(), run()
	if r1.Cycles != r2.Cycles {
		t.Fatalf("tenant mix nondeterministic: %d vs %d", r1.Cycles, r2.Cycles)
	}
}
