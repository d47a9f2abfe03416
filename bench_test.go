package palermo

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §3). Each benchmark regenerates its figure as a
// text table (logged once) and reports the headline number as a benchmark
// metric, so `go test -bench=. -benchmem` reproduces the whole evaluation.
//
// Scale: the paper measures up to 50M ORAM requests per point; benches
// default to hundreds per point (thousands of DRAM events each), which is
// where the shapes stabilize. The request counts are fixed here; scale a
// figure with `palermo-bench -fig N -requests R -parallel W` instead.

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"palermo/internal/rng"
)

// BenchmarkStoreOpsDurable times one synchronous caller on a one-shard
// store over each durable engine, every write committed under the
// group-commit policy; the delta between the rows is the engines'
// difference (EXPERIMENTS.md records both).
func BenchmarkStoreOpsDurable(b *testing.B) {
	for _, engine := range []string{BackendWAL, BackendBlockfile} {
		b.Run("engine="+engine, func(b *testing.B) {
			st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 16, Shards: 1, Engine: engine, Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			storeMix(b, st)
		})
	}
}

// storeMix writes every block once before the timer starts, then times a
// 90/10 read/write mix over uniform ids and reports ops/s. Without the
// population pass the write ids (id%10 == 0) and read ids (everything
// else) are disjoint sets and every read misses the backend entirely,
// which understates read cost. The timer stops with the mix, so the
// caller's deferred Close (a final checkpoint) is in neither ns/op nor
// ops/s.
func storeMix(b *testing.B, st *ShardedStore) {
	b.Helper()
	buf := bytes.Repeat([]byte{0xA5}, BlockSize)
	for id := uint64(0); id < 1<<16; id++ {
		if err := st.Write(id, buf); err != nil {
			b.Fatal(err)
		}
	}
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := r.Uint64n(1 << 16)
		if id%10 == 0 {
			if err := st.Write(id, buf); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := st.Read(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkShardedStoreOps measures the concurrent service layer at 1, 2,
// and 4 shards under GOMAXPROCS parallel closed-loop clients. On a 4-core
// runner, 4 shards should deliver >= 2x the 1-shard ops/s (the serving-path
// analogue of Fig 11's request-level-parallelism scaling).
func BenchmarkShardedStoreOps(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 16, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			var clientSeq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// b.Error, not b.Fatal: Fatal must not run off the
				// benchmark goroutine.
				r := rng.New(1000 + clientSeq.Add(1))
				buf := bytes.Repeat([]byte{0x5A}, BlockSize)
				for pb.Next() {
					id := r.Uint64n(1 << 16)
					if id%10 == 0 {
						if err := st.Write(id, buf); err != nil {
							b.Error(err)
							return
						}
					} else {
						if _, err := st.Read(id); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkShardedServing is the serving-path configuration benchmark:
// GOMAXPROCS closed-loop clients issuing Zipf-skewed (θ=0.99) 8-id read
// batches with a 10% write mix against 4 shards — the workload the
// tree-top cache is built for.
func BenchmarkShardedServing(b *testing.B) {
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 16, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	var clientSeq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(2000 + clientSeq.Add(1))
		z := rng.NewZipf(r, 1<<16, 0.99)
		buf := bytes.Repeat([]byte{0x3C}, BlockSize)
		ids := make([]uint64, 8)
		for pb.Next() {
			if r.Uint64n(10) == 0 {
				if err := st.Write(z.Next(), buf); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			for i := range ids {
				ids[i] = z.Next()
			}
			if _, err := st.ReadBatch(ids); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	tr := st.Traffic()
	if ops := tr.Reads + tr.Writes; ops > 0 {
		b.ReportMetric(float64(tr.DRAMReads+tr.DRAMWrites)/float64(ops), "dram_lines/op")
		b.ReportMetric(float64(tr.TreeTopHits)/float64(ops), "treetop_hits/op")
	}
}

func BenchmarkFig03_RingBandwidth(b *testing.B) {
	var sync float64
	for i := 0; i < b.N; i++ {
		res, err := Fig3(Options{Requests: 600})
		if err != nil {
			b.Fatal(err)
		}
		sync = res.SyncTotal()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(sync*100, "sync_pct") // paper: 72.4
}

func BenchmarkFig04_PrefetchDummies(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := Fig4(Options{Requests: 500})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range res.PrDummy {
			if d > peak {
				peak = d
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(peak*100, "peak_dummy_pct") // paper: 77.3 at pf=4
}

func BenchmarkFig09_SecurityLatency(b *testing.B) {
	var worstMI float64
	for i := 0; i < b.N; i++ {
		res, err := Fig9(Options{Requests: 2500})
		if err != nil {
			b.Fatal(err)
		}
		worstMI = 0
		for _, row := range res.Rows {
			if row.MutualInfo > worstMI {
				worstMI = row.MutualInfo
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(worstMI, "worst_mutual_info_bits") // paper: <= 0.006
}

func BenchmarkFig10_EndToEnd(b *testing.B) {
	var palermoGM, pfGM float64
	for i := 0; i < b.N; i++ {
		res, err := Fig10(Options{Requests: 500})
		if err != nil {
			b.Fatal(err)
		}
		for p, proto := range res.Protocols {
			switch proto {
			case ProtoPalermo:
				palermoGM = res.GMean[p]
			case ProtoPalermoPF:
				pfGM = res.GMean[p]
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(palermoGM, "palermo_gmean_x") // paper: 2.4
	b.ReportMetric(pfGM, "palermo_pf_gmean_x")   // paper: 3.1
}

func BenchmarkFig11_Parallelism(b *testing.B) {
	var outR, bwR float64
	for i := 0; i < b.N; i++ {
		res, err := Fig11(Options{Requests: 600})
		if err != nil {
			b.Fatal(err)
		}
		outR, bwR = res.Ratios()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(outR, "outstanding_ratio_x") // paper: 2.8
	b.ReportMetric(bwR, "bandwidth_ratio_x")    // paper: 2.2
}

func BenchmarkFig12_StashBound(b *testing.B) {
	var worst int
	for i := 0; i < b.N; i++ {
		res, err := Fig12(Options{Requests: 1000})
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, m := range res.Max {
			if m > worst {
				worst = m
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(float64(worst), "max_stash_tags") // paper: 228-237 < 256
}

func BenchmarkFig13_PrefetchSweep(b *testing.B) {
	var llmBest float64
	for i := 0; i < b.N; i++ {
		res, err := Fig13(Options{Requests: 500})
		if err != nil {
			b.Fatal(err)
		}
		for w, wl := range res.Workloads {
			if wl != "llm" {
				continue
			}
			for _, v := range res.Speedup[w] {
				if v > llmBest {
					llmBest = v
				}
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(llmBest, "llm_best_speedup_x") // paper: ~4.3 at pf=8
}

func BenchmarkFig14a_SweepZ(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := Fig14a(Options{Requests: 400})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Speedup[2] // (16,27,20), the adopted configuration
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(gain, "z16_speedup_x") // paper: up to 1.8
}

func BenchmarkFig14b_SweepPE(b *testing.B) {
	var at8 float64
	for i := 0; i < b.N; i++ {
		res, err := Fig14b(Options{Requests: 400})
		if err != nil {
			b.Fatal(err)
		}
		at8 = res.Speedup[3]
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(at8, "pe8_speedup_x") // paper: ~2.2
}

func BenchmarkFig15_AreaPower(b *testing.B) {
	var area, power float64
	for i := 0; i < b.N; i++ {
		m := Fig15(8)
		area, power = m.TotalArea(), m.TotalPower()
		if i == 0 {
			b.Log("\n" + m.String())
		}
	}
	b.ReportMetric(area, "area_mm2") // paper: 5.78
	b.ReportMetric(power, "power_w") // paper: 2.14
}

func BenchmarkTab02_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := TableII()
		if i == 0 {
			b.Log("\n" + s + TableIII())
		}
	}
}

func BenchmarkAblation_ERHoisting(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := AblationHoisting(Options{Requests: 500})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(gain, "hoisting_gain_x")
}

func BenchmarkAblation_TreeTopCache(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := AblationTreeTop(Options{Requests: 500})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(gain, "treetop_gain_x")
}

func BenchmarkAblation_SWGranularity(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := AblationCommitGranularity(Options{Requests: 500})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(gain, "fine_sw_gain_x")
}

func BenchmarkExt_PathMesh(b *testing.B) {
	var pathG, ringG float64
	for i := 0; i < b.N; i++ {
		pg, rg, err := AblationPathMesh(Options{Requests: 500})
		if err != nil {
			b.Fatal(err)
		}
		pathG, ringG = pg.Gain(), rg.Gain()
		if i == 0 {
			b.Log("\n" + pg.String() + "\n" + rg.String())
		}
	}
	b.ReportMetric(pathG, "path_mesh_gain_x") // §IV-E: limited
	b.ReportMetric(ringG, "ring_mesh_gain_x") // §IV-E: large
}

func BenchmarkExt_TenantIsolation(b *testing.B) {
	var mi float64
	for i := 0; i < b.N; i++ {
		rep, err := TenantIsolation(Options{Requests: 2000})
		if err != nil {
			b.Fatal(err)
		}
		mi = rep.MutualInfo
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	b.ReportMetric(mi, "tenant_mi_bits") // §VI: ~0
}
