package palermo

import (
	"fmt"
	"strings"
	"testing"

	"palermo/internal/security"
)

// Small, fast options for API-level tests.
func testOpts() Options {
	return Options{Lines: 1 << 22, Requests: 250}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range Protocols() {
		r, err := Run(p, "rand", testOpts())
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if r.Requests == 0 || r.Cycles == 0 {
			t.Fatalf("%v: empty result %+v", p, r.Result)
		}
		if r.Protocol != p || r.Workload != "rand" {
			t.Fatalf("%v: identity fields wrong", p)
		}
		if r.Mem.BandwidthUtil <= 0 || r.Mem.BandwidthUtil >= 1 {
			t.Fatalf("%v: bandwidth %f out of range", p, r.Mem.BandwidthUtil)
		}
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(ProtoPalermo, "bogus", testOpts()); err == nil {
		t.Fatal("expected error")
	}
}

// TestNegativeOptionsRefused: every count in Options is 0 (its default)
// or more. A negative one is refused with an error naming the field, not
// a panic, an empty run, a shorter warmup or a silent default.
func TestNegativeOptionsRefused(t *testing.T) {
	run := func(p Protocol) func(Options) error {
		return func(o Options) error {
			_, err := Run(p, "llm", o)
			return err
		}
	}
	for _, tc := range []struct {
		field string
		run   func(Options) error
		o     Options
	}{
		{"Requests", run(ProtoPalermo), Options{Requests: -5}},
		{"Warmup", run(ProtoRingORAM), Options{Requests: 50, Warmup: -3}},
		{"Prefetch", run(ProtoPalermoPF), Options{Prefetch: -2}},
		{"Columns", run(ProtoPalermo), Options{Columns: -1}},
		{"Z", run(ProtoRingORAM), Options{Z: -1}},
		{"S", run(ProtoPalermo), Options{S: -1}},
		{"A", run(ProtoPalermo), Options{A: -1}},
		{"StashThreshold", run(ProtoPrORAM), Options{StashThreshold: -1}},
		{"Requests", func(o Options) error { _, err := AblationHoisting(o); return err }, Options{Requests: -5}},
		{"Columns", func(o Options) error { _, _, err := AblationPathMesh(o); return err }, Options{Columns: -1}},
		{"Warmup", func(o Options) error { _, err := TenantIsolation(o); return err }, Options{Warmup: -1}},
	} {
		o := tc.o
		o.Lines = 1 << 20
		err := tc.run(o)
		if want := "palermo: Options." + tc.field + " is -"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: got error %v, want one containing %q", tc.o, err, want)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(ProtoPalermo, "pr", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(ProtoPalermo, "pr", testOpts())
	if a.Cycles != b.Cycles || a.PlanReads != b.PlanReads {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Cycles, a.PlanReads, b.Cycles, b.PlanReads)
	}
	o := testOpts()
	o.Seed = 99
	c, _ := Run(ProtoPalermo, "pr", o)
	if c.Cycles == a.Cycles && c.PlanReads == a.PlanReads {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestHeadlineSpeedups(t *testing.T) {
	// The paper's core claims, at test scale: Palermo beats RingORAM by a
	// wide margin; the hardware co-design beats the software-only variant;
	// prefetch helps on a streaming workload.
	o := Options{Lines: 1 << 24, Requests: 500}
	ring, err := Run(ProtoRingORAM, "stm", o)
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := Run(ProtoPalermoSW, "stm", o)
	pal, _ := Run(ProtoPalermo, "stm", o)
	pf, _ := Run(ProtoPalermoPF, "stm", o)

	if pal.Throughput() < 1.5*ring.Throughput() {
		t.Fatalf("Palermo/Ring = %.2fx, want > 1.5x",
			pal.Throughput()/ring.Throughput())
	}
	if pal.Throughput() <= sw.Throughput() {
		t.Fatal("hardware mesh must beat software-only Palermo")
	}
	if pf.Throughput() <= pal.Throughput() {
		t.Fatal("prefetch must help on stm")
	}
}

func TestPalermoStashBoundedAtScale(t *testing.T) {
	r, err := Run(ProtoPalermo, "redis", Options{Requests: 800})
	if err != nil {
		t.Fatal(err)
	}
	for l, m := range r.StashMax {
		if m > 256 {
			t.Fatalf("level %d stash peaked at %d", l, m)
		}
	}
}

func TestPrORAMDummiesOnStreaming(t *testing.T) {
	o := Options{Lines: 1 << 24, Requests: 600, Prefetch: 8, noFatTree: true}
	r, err := Run(ProtoPrORAM, "stm", o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dummies == 0 {
		t.Fatal("plain PrORAM at pf=8 on stm must trigger background evictions")
	}
	if r.LLCHits == 0 {
		t.Fatal("prefetch filter produced no LLC hits on stm")
	}
}

func TestPalermoPFNoDummies(t *testing.T) {
	o := Options{Lines: 1 << 24, Requests: 600, Prefetch: 8}
	r, err := Run(ProtoPalermoPF, "stm", o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dummies != 0 {
		t.Fatalf("Palermo prefetch must not need dummies, got %d (§V-C)", r.Dummies)
	}
	if r.StashMax[0] > 256 {
		t.Fatalf("stash tags peaked at %d with prefetch", r.StashMax[0])
	}
}

func TestSecurityEndToEnd(t *testing.T) {
	o := Options{Lines: 1 << 24, Requests: 2000, KeepLatency: true}
	r, err := Run(ProtoPalermo, "redis", o)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := security.AnalyzeLeaves(r.Leaves, r.NumLeaves, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !leaf.Uniform(0.001) {
		t.Fatalf("leaf stream rejected as non-uniform: %v", leaf)
	}
	tim, err := security.AnalyzeTiming(r.RespLat.Samples(), r.FromStash)
	if err != nil {
		t.Fatal(err)
	}
	if tim.MutualInfo > 0.05 {
		t.Fatalf("mutual information %v too high at n=%d", tim.MutualInfo, len(r.Leaves))
	}
}

// TestKeepLatencyOneSamplePerLabel: with KeepLatency every protocol books
// exactly one latency sample per labelled (real) request, so the timing
// analysis pairs each sample with its FromStash label. Measured dummies,
// which PrORAM issues on stm, extend the window but book no latency.
func TestKeepLatencyOneSamplePerLabel(t *testing.T) {
	for _, p := range Protocols() {
		r, err := Run(p, "stm", Options{Requests: 400, Seed: 3, KeepLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := r.RespLat.N(); n != uint64(len(r.FromStash)) || n != r.Requests {
			t.Errorf("%s: %d latency samples, %d FromStash labels, %d measured requests (%d dummies)",
				p, n, len(r.FromStash), r.Requests, r.Dummies)
		}
	}
}

func TestDefaultPrefetch(t *testing.T) {
	if DefaultPrefetch("llm") != 8 || DefaultPrefetch("rm2") != 8 {
		t.Fatal("embedding workloads must prefetch by row (capped at 8)")
	}
	if DefaultPrefetch("rand") != 1 || DefaultPrefetch("redis") != 1 {
		t.Fatal("low-locality workloads must not prefetch")
	}
}

func TestProtocolStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Protocols() {
		s := p.String()
		if s == "" || strings.HasPrefix(s, "Protocol(") || seen[s] {
			t.Fatalf("bad or duplicate protocol name %q", s)
		}
		seen[s] = true
	}
}

func TestTables(t *testing.T) {
	if !strings.Contains(TableII(), "llm") {
		t.Fatal("Table II missing workloads")
	}
	if !strings.Contains(TableIII(), "DDR4-3200") {
		t.Fatal("Table III missing memory config")
	}
	if !strings.Contains(Fig15(8).String(), "5.78") {
		t.Fatal("Fig 15 missing calibrated area")
	}
}

func TestFig14aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res, err := Fig14a(Options{Requests: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Larger (Z,S,A) must help (fewer write barriers, §VIII-C) and the
	// stash must stay bounded.
	if res.Speedup[2] < 1.3 {
		t.Fatalf("(16,27,20) speedup = %.2f, want > 1.3 over (4,5,3)", res.Speedup[2])
	}
	for i, s := range res.Stash {
		if s > 256 {
			t.Fatalf("config %d stash %d over budget", i, s)
		}
	}
}

func TestFig14bSaturates(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res, err := Fig14b(Options{Requests: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup[3] < 1.5 { // 8 columns vs 1
		t.Fatalf("3x8 speedup = %.2f, want > 1.5", res.Speedup[3])
	}
	if res.Speedup[5] > res.Speedup[3]*1.25 {
		t.Fatalf("throughput must saturate near 8 columns: %v", res.Speedup)
	}
}

// ExampleRun demonstrates the simulation entry point.
func ExampleRun() {
	res, err := Run(ProtoPalermo, "rand", Options{Lines: 1 << 20, Requests: 100})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Protocol, res.Workload, res.Requests)
	// Output: Palermo rand 100
}
