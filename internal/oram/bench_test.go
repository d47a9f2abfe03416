package oram

import (
	"runtime"
	"sync"
	"testing"

	"palermo/internal/rng"
)

// servingRing builds the engine the way shard.New does (PalermoRingConfig
// over a 2^15-line shard, count-only traffic) and writes every line once,
// so the measured accesses run against a populated tree.
func servingRing(tb testing.TB) *Ring {
	cfg := PalermoRingConfig()
	cfg.NLines = 1 << 15
	cfg.Seed = 7
	cfg.CountTraffic = true
	e, err := NewRing(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for pa := uint64(0); pa < cfg.NLines; pa++ {
		e.Access(pa, true, pa)
	}
	return e
}

// paperRing is the simulator's engine: the Table III 2^28-line space in
// address mode, warmed with n uniform accesses.
func paperRing(tb testing.TB, n int) (*Ring, *rng.Rand) {
	cfg := PalermoRingConfig()
	cfg.Seed = 7
	e, err := NewRing(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(11)
	for i := 0; i < n; i++ {
		e.Access(r.Uint64n(cfg.NLines), i%2 == 0, uint64(i))
	}
	return e, r
}

var benchSink int

// servingBench is BenchmarkRingAccessServing's engine, filled once per
// process: every run of the benchmark (the probe at b.N = 1, each of
// -count's) continues the same access stream on it, so a process times
// accesses rather than fills.
var servingBench struct {
	once sync.Once
	e    *Ring
	r    *rng.Rand
	i    int
}

// BenchmarkRingAccessServing is one serving-engine access (the engine share
// of every store op): allocs/op is the number TestRingAccessAllocs guards.
// For an A/B, run each side's test binary at -benchtime 50000x
// -count 30 (one fill per process, then 30 short windows), take each
// process's minimum, and compare over at least 8 alternating pairs: a
// window's mean moves with the stash's stretches, so only the minimum
// resolves a 10 % change.
func BenchmarkRingAccessServing(b *testing.B) {
	sb := &servingBench
	sb.once.Do(func() { sb.e, sb.r = servingRing(b), rng.New(11) })
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sb.i++
		p := sb.e.Access(sb.r.Uint64n(1<<15), sb.i%4 == 0, uint64(sb.i))
		benchSink += p.Reads() + p.Writes()
	}
}

// BenchmarkRingAccessPaper is one simulator-engine access: address-mode
// plans over the sparse 2^28-line space.
func BenchmarkRingAccessPaper(b *testing.B) {
	e, r := paperRing(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := e.Access(r.Uint64n(1<<28), i%4 == 0, uint64(i))
		benchSink += p.Reads() + p.Writes()
	}
}

// TestRingAccessAllocs guards the allocation budget of one access after
// warm-up. The serving engine (count-only plans, every bucket and posmap
// page already touched) is built to allocate nothing; AllocsPerRun's
// integer average leaves room only for amortized growth of the stash slab
// (under one allocation per access). The address-mode
// engine over the sparse paper-scale space still allocates its plan, its
// address lists and the first-touch state of the deep buckets every random
// path reaches; the recorded ceiling (half the parent commit's 97) catches a
// per-slot or per-phase allocation creeping back.
func TestRingAccessAllocs(t *testing.T) {
	serving := servingRing(t)
	r := rng.New(11)
	i := 0
	access := func(e *Ring, lines uint64) func() {
		return func() {
			i++
			p := e.Access(r.Uint64n(lines), i%4 == 0, uint64(i))
			benchSink += p.Reads()
		}
	}
	servingAllocs := testing.AllocsPerRun(5000, access(serving, 1<<15))
	if servingAllocs > 0 {
		t.Errorf("serving (count-only) access allocates %.0f times per access, want 0", servingAllocs)
	}
	paper, _ := paperRing(t, 2000)
	paperAllocs := testing.AllocsPerRun(2000, access(paper, 1<<28))
	if paperAllocs > 48 {
		t.Errorf("paper (address-mode) access allocates %.0f times per access, ceiling 48", paperAllocs)
	}
	t.Logf("allocations per access: serving %.0f, paper %.0f", servingAllocs, paperAllocs)
}

// servingHeapPerBlock is TestServingHeapPerBlock's ceiling: the measured
// 30.2 bytes plus a margin. It measured 43.1 while buckets and stash
// entries stored each block's value beside its id and the stash indexed
// every block id.
const servingHeapPerBlock = 32

// TestServingHeapPerBlock pins the serving engine's trusted metadata at
// DESIGN §10's geometry: the live heap of a 2^15-line PalermoRingConfig
// engine with CountTraffic, filled and then given 200 k mixed accesses,
// per block. Position map, values, bucket ids, buckets and stash are all
// in it, so a wider stored entry or an index over the whole id space shows
// here.
func TestServingHeapPerBlock(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := servingRing(t)
	r := rng.New(11)
	for i := 0; i < 200_000; i++ {
		e.Access(r.Uint64n(1<<15), i%2 == 0, uint64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	perBlock := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 15)
	if perBlock > servingHeapPerBlock {
		t.Errorf("serving engine live heap is %.1f B per block, ceiling %d", perBlock, servingHeapPerBlock)
	}
	t.Logf("serving engine live heap: %.1f B per block", perBlock)
}

// paperPath is the simulator's PathORAM engine: DefaultPathConfig over the
// Table III 2^28-line space, warmed with n uniform accesses like paperRing.
func paperPath(tb testing.TB, n int) (*Path, *rng.Rand) {
	cfg := DefaultPathConfig()
	cfg.Seed = 7
	e, err := NewPath(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(11)
	for i := 0; i < n; i++ {
		e.Access(r.Uint64n(cfg.NLines), i%2 == 0, uint64(i))
	}
	return e, r
}

// BenchmarkPathAccess is one PathORAM simulator-engine access: the
// address-mode plan of a full path read and write-back at every level.
func BenchmarkPathAccess(b *testing.B) {
	e, r := paperPath(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := e.Access(r.Uint64n(1<<28), i%4 == 0, uint64(i))
		benchSink += p.Reads() + p.Writes()
	}
}

// TestPathAccessAllocs guards the allocation budget of one warmed PathORAM
// access at paper scale: its plan, its per-phase address lists (each sized
// once by Space.reserve) and the first-touch state of the deep buckets a
// random path reaches. The ceiling is the measured count.
func TestPathAccessAllocs(t *testing.T) {
	e, r := paperPath(t, 2000)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		p := e.Access(r.Uint64n(1<<28), i%4 == 0, uint64(i))
		benchSink += p.Reads()
	})
	if allocs > 18 {
		t.Errorf("paper (address-mode) PathORAM access allocates %.0f times per access, ceiling 18", allocs)
	}
	t.Logf("allocations per access: %.0f", allocs)
}
