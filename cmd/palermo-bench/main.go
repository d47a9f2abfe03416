// Command palermo-bench regenerates the paper's evaluation figures and
// tables as text output.
//
// Usage:
//
//	palermo-bench -fig 10              # one figure (3,4,9,10,11,12,13,14a,14b,15)
//	palermo-bench -all                 # everything
//	palermo-bench -fig 10 -requests 2000
//	palermo-bench -fig 10 -parallel 8  # sweep cells on 8 workers (0 = all cores)
//	palermo-bench -fig 10 -json out/   # also write out/BENCH_fig10.json
//	palermo-bench -run Palermo:llm     # one protocol on one workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"palermo"
	"palermo/internal/loadgen"
	"palermo/internal/rng"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 3, 4, 9, 10, 11, 12, 13, 14a, 14b, 15, tab2, tab3, ablations, tenants, store, openloop")
	all := flag.Bool("all", false, "regenerate every figure and table")
	requests := flag.Int("requests", 800, "measured ORAM requests per data point")
	run := flag.String("run", "", "single run as Protocol:workload (e.g. Palermo:llm)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "sweep worker pool size: 0 = all cores, 1 = serial (results are identical either way)")
	asCSV := flag.Bool("csv", false, "emit CSV instead of text tables (figures 3,4,9,10,11,12,13,14a,14b)")
	jsonDir := flag.String("json", "", "directory to write BENCH_<fig>.json perf/metric records into (empty = disabled)")
	flag.Parse()

	o := palermo.Options{Requests: *requests, Seed: *seed, Workers: *parallel}
	csvOut = *asCSV
	benchDir = *jsonDir

	if *run != "" {
		if err := single(*run, o); err != nil {
			fatal(err)
		}
		return
	}
	if *all {
		for _, f := range []string{"tab2", "tab3", "3", "4", "9", "10", "11", "12", "13", "14a", "14b", "15", "ablations", "tenants", "store", "openloop"} {
			if err := figure(f, o); err != nil {
				fatal(err)
			}
		}
		return
	}
	if *fig == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := figure(*fig, o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "palermo-bench:", err)
	os.Exit(1)
}

func single(spec string, o palermo.Options) error {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want Protocol:workload, got %q", spec)
	}
	var proto palermo.Protocol
	found := false
	for _, p := range palermo.Protocols() {
		if strings.EqualFold(p.String(), parts[0]) {
			proto, found = p, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown protocol %q", parts[0])
	}
	res, err := palermo.Run(proto, parts[1], o)
	if err != nil {
		return err
	}
	fmt.Println(res.Result)
	fmt.Printf("  served lines: %d (%d LLC hits filtered), dummies: %d\n",
		res.ServedLines, res.LLCHits, res.Dummies)
	fmt.Printf("  row-hit %.1f%%, conflicts %.1f%%, avg outstanding %.1f, stash max %v\n",
		res.Mem.RowHitRate*100, res.Mem.RowConflictRate*100, res.Mem.AvgOutstanding, res.StashMax)
	return nil
}

// csvOut selects CSV emission (set from the -csv flag).
var csvOut bool

// benchDir, when non-empty, receives one BENCH_<fig>.json per figure run
// (set from the -json flag).
var benchDir string

// csvAble is a result that can render both as a text table and as CSV.
type csvAble interface {
	fmt.Stringer
	CSV(io.Writer) error
}

func emit(r csvAble) error {
	if csvOut {
		return r.CSV(os.Stdout)
	}
	fmt.Println(r)
	return nil
}

// benchRecord is the machine-readable perf/metric record written per
// figure, so the evaluation's headline numbers and wall-clock trajectory
// can be tracked across revisions.
type benchRecord struct {
	Figure      string             `json:"figure"`
	Requests    int                `json:"requests"`
	Seed        uint64             `json:"seed"`
	Workers     int                `json:"workers"` // 0 = all cores
	Cores       int                `json:"cores"`
	WallSeconds float64            `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics"`
}

// writeRecord writes BENCH_<fig>.json into benchDir.
func writeRecord(f string, o palermo.Options, wall time.Duration, metrics map[string]float64) error {
	if benchDir == "" || len(metrics) == 0 {
		return nil
	}
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return err
	}
	rec := benchRecord{
		Figure:      f,
		Requests:    o.Requests,
		Seed:        o.Seed,
		Workers:     o.Workers,
		Cores:       runtime.GOMAXPROCS(0),
		WallSeconds: wall.Seconds(),
		Metrics:     metrics,
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	base := "BENCH_fig" + strings.ReplaceAll(f, "/", "_")
	if f == "openloop" {
		// The open-loop sweep is a methodology artifact, not a paper
		// figure; it keeps its own well-known record name.
		base = "BENCH_openloop"
	}
	name := filepath.Join(benchDir, base+".json")
	return os.WriteFile(name, append(buf, '\n'), 0o644)
}

// storeBench measures the serving path: ops/sec through the synchronous
// Store and through ShardedStore at 1 and 4 shards (GOMAXPROCS closed-loop
// clients), mirroring BenchmarkStoreOps/BenchmarkShardedStoreOps so the
// service layer joins the BENCH perf trajectory. -requests sets the op
// count per configuration.
func storeBench(o palermo.Options, metrics map[string]float64) error {
	const blocks = 1 << 16
	ops := o.Requests * 4 // store ops are far cheaper than simulated requests

	st, err := palermo.NewStore(palermo.StoreConfig{Blocks: blocks, Seed: o.Seed})
	if err != nil {
		return err
	}
	buf := make([]byte, palermo.BlockSize)
	r := rng.New(o.Seed)
	start := time.Now()
	for i := 0; i < ops; i++ {
		id := r.Uint64n(blocks)
		if id%10 == 0 {
			err = st.Write(id, buf)
		} else {
			_, err = st.Read(id)
		}
		if err != nil {
			return err
		}
	}
	storeOps := float64(ops) / time.Since(start).Seconds()
	metrics["store_ops_per_sec"] = storeOps
	fmt.Printf("Store                 %10.0f ops/sec (%d ops, amplification %.1f)\n",
		storeOps, ops, st.Traffic().AmplificationFactor)

	for _, shards := range []int{1, 4} {
		if err := shardedBenchOne(o, shards, blocks, ops, metrics); err != nil {
			return err
		}
	}
	if base := metrics["sharded1_ops_per_sec"]; base > 0 {
		metrics["shard_scaling_x"] = metrics["sharded4_ops_per_sec"] / base
		fmt.Printf("scaling 1 -> 4 shards %9.2fx\n", metrics["shard_scaling_x"])
	}
	return nil
}

// shardedBenchOne measures one ShardedStore configuration through the
// shared internal/loadgen driver; the deferred Close keeps error paths
// from leaking shard workers into later figures.
func shardedBenchOne(o palermo.Options, shards int, blocks uint64, ops int, metrics map[string]float64) error {
	sst, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{
		Blocks: blocks, Shards: shards, Seed: o.Seed,
	})
	if err != nil {
		return err
	}
	defer sst.Close()
	clients := runtime.GOMAXPROCS(0) * 2
	res, err := loadgen.Run(sst, loadgen.Options{
		Clients:   clients,
		Ops:       ops,
		ReadRatio: 0.9,
		Batch:     1,
		Seed:      o.Seed,
	})
	if err != nil {
		return err
	}
	metrics[fmt.Sprintf("sharded%d_ops_per_sec", shards)] = res.OpsPerSec()
	fmt.Printf("ShardedStore shards=%d %10.0f ops/sec (p50 %.0fµs, p99 %.0fµs, %d clients)\n",
		shards, res.OpsPerSec(), res.Stats.ReadLat.P50Us, res.Stats.ReadLat.P99Us, clients)
	return nil
}

// openLoopBench is the coordinated-omission sweep: measure the store's
// closed-loop saturation throughput, then drive fresh stores open-loop
// at offered rates spanning saturation (0.5x to 2x) and record the
// intended-send-time latency curve plus the overload-shedding response.
// With -json the record lands in BENCH_openloop.json. Each rate gets a
// fresh store so every percentile is run-exact (never lifetime-
// weighted), and the admission deadline keeps the overloaded points
// shedding instead of queueing without bound — the admitted ops' p99
// stays bounded while the shed count carries the excess.
func openLoopBench(o palermo.Options, metrics map[string]float64) error {
	const (
		blocks    = 1 << 16
		shards    = 4
		perRate   = 1500 * time.Millisecond
		admission = 200 * time.Microsecond
		queue     = 8
	)
	// Open-loop clients issue synchronously, so each contributes at most
	// one outstanding operation: offering genuine overload needs many
	// more clients than the closed-loop sweeps use. The shallow queue +
	// tight admission deadline make the overloaded points shed (bounded
	// queue wait for admitted ops) instead of queueing without bound.
	clients := runtime.GOMAXPROCS(0) * 8
	if clients < 64 {
		clients = 64
	}
	newStore := func() (*palermo.ShardedStore, error) {
		return palermo.NewShardedStore(palermo.ShardedStoreConfig{
			Blocks: blocks, Shards: shards, Seed: o.Seed,
			QueueDepth: queue, AdmissionDeadline: admission,
		})
	}

	// Closed-loop saturation reference: self-clocking clients going as
	// fast as completions allow. Its throughput anchors the sweep and its
	// p99 is the number coordinated omission flatters.
	st, err := newStore()
	if err != nil {
		return err
	}
	res, err := loadgen.Run(st, loadgen.Options{
		Clients: clients, Ops: o.Requests * 4, ReadRatio: 0.9, Batch: 1, Seed: o.Seed,
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sat := res.OpsPerSec()
	closedP99 := res.Stats.ReadLat.P99Us
	metrics["closedloop_ops_per_sec"] = sat
	metrics["closedloop_read_p99_us"] = closedP99
	fmt.Printf("closed-loop saturation %9.0f ops/sec (read p99 %.0fµs, %d clients, admission %v)\n",
		sat, closedP99, clients, admission)
	fmt.Printf("%8s %12s %12s %10s %22s\n", "offered", "rate", "achieved", "shed", "read p99 intended (µs)")
	for _, mul := range []float64{0.5, 0.9, 1.2, 2.0} {
		rate := sat * mul
		st, err := newStore()
		if err != nil {
			return err
		}
		r, err := loadgen.Run(st, loadgen.Options{
			Clients: clients, Duration: perRate, ReadRatio: 0.9, Batch: 1,
			Rate: rate, Seed: o.Seed,
		})
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		key := fmt.Sprintf("x%03d", int(mul*100+0.5))
		metrics["offered_"+key] = r.OfferedRate
		metrics["achieved_"+key] = r.AchievedRate
		metrics["shed_"+key] = float64(r.ShedOps)
		metrics["openloop_read_p99_us_"+key] = r.RunReadLat.P99Us
		if loadgen.Clipped(r.RunReadLat, r.ReadOverflow, 0.99) {
			// The p99 above is the histogram ceiling, not a measurement.
			metrics["openloop_read_p99_lower_bound_"+key] = 1
		}
		metrics["admitted_read_p99_us_"+key] = r.Stats.ReadLat.P99Us
		metrics["queue_p99_us_"+key] = r.Stats.QueueLat.P99Us
		_, p99 := loadgen.FormatRunLat(r.RunReadLat, r.ReadOverflow)
		fmt.Printf("  %.2fx %12.0f %12.0f %10d %22s\n", mul, rate, r.AchievedRate, r.ShedOps, p99)
	}
	return nil
}

// figure regenerates one figure, emits it, and (with -json) records its
// headline metrics — the same ones bench_test.go reports — plus wall-clock.
func figure(f string, o palermo.Options) error {
	start := time.Now()
	metrics := map[string]float64{}
	switch f {
	case "3":
		r, err := palermo.Fig3(o)
		if err != nil {
			return err
		}
		metrics["sync_pct"] = r.SyncTotal() * 100
		metrics["row_hit_pct"] = r.RowHit * 100
		if err := emit(r); err != nil {
			return err
		}
	case "4":
		r, err := palermo.Fig4(o)
		if err != nil {
			return err
		}
		metrics["peak_dummy_pct"] = 0 // max over both arms; 0 is a valid record
		for _, d := range append(append([]float64{}, r.PrDummy...), r.FatDummy...) {
			if d*100 > metrics["peak_dummy_pct"] {
				metrics["peak_dummy_pct"] = d * 100
			}
		}
		if err := emit(r); err != nil {
			return err
		}
	case "9":
		r, err := palermo.Fig9(o)
		if err != nil {
			return err
		}
		metrics["worst_mutual_info_bits"] = 0 // MI ~ 0 is the expected result
		for _, row := range r.Rows {
			if row.MutualInfo > metrics["worst_mutual_info_bits"] {
				metrics["worst_mutual_info_bits"] = row.MutualInfo
			}
		}
		if err := emit(r); err != nil {
			return err
		}
	case "10":
		r, err := palermo.Fig10(o)
		if err != nil {
			return err
		}
		for p, proto := range r.Protocols {
			switch proto {
			case palermo.ProtoPalermo:
				metrics["palermo_gmean_x"] = r.GMean[p]
			case palermo.ProtoPalermoPF:
				metrics["palermo_pf_gmean_x"] = r.GMean[p]
			}
		}
		if err := emit(r); err != nil {
			return err
		}
	case "11":
		r, err := palermo.Fig11(o)
		if err != nil {
			return err
		}
		metrics["outstanding_ratio_x"], metrics["bandwidth_ratio_x"] = r.Ratios()
		if err := emit(r); err != nil {
			return err
		}
	case "12":
		r, err := palermo.Fig12(o)
		if err != nil {
			return err
		}
		metrics["max_stash_tags"] = 0
		for _, m := range r.Max {
			if float64(m) > metrics["max_stash_tags"] {
				metrics["max_stash_tags"] = float64(m)
			}
		}
		if err := emit(r); err != nil {
			return err
		}
	case "13":
		r, err := palermo.Fig13(o)
		if err != nil {
			return err
		}
		metrics["llm_best_speedup_x"] = 0
		for w, wl := range r.Workloads {
			if wl != "llm" {
				continue
			}
			for _, v := range r.Speedup[w] {
				if v > metrics["llm_best_speedup_x"] {
					metrics["llm_best_speedup_x"] = v
				}
			}
		}
		if err := emit(r); err != nil {
			return err
		}
	case "14a":
		r, err := palermo.Fig14a(o)
		if err != nil {
			return err
		}
		metrics["z16_speedup_x"] = r.Speedup[2]
		if err := emit(r); err != nil {
			return err
		}
	case "14b":
		r, err := palermo.Fig14b(o)
		if err != nil {
			return err
		}
		metrics["pe8_speedup_x"] = r.Speedup[3]
		if err := emit(r); err != nil {
			return err
		}
	case "15":
		m := palermo.Fig15(8)
		metrics["area_mm2"], metrics["power_w"] = m.TotalArea(), m.TotalPower()
		fmt.Println(m)
	case "tab2":
		fmt.Println(palermo.TableII())
	case "tab3":
		fmt.Println(palermo.TableIII())
	case "ablations":
		for _, fn := range []func(palermo.Options) (palermo.AblationResult, error){
			palermo.AblationHoisting, palermo.AblationTreeTop, palermo.AblationCommitGranularity,
		} {
			r, err := fn(o)
			if err != nil {
				return err
			}
			fmt.Println(r)
		}
		pg, rg, err := palermo.AblationPathMesh(o)
		if err != nil {
			return err
		}
		metrics["path_mesh_gain_x"], metrics["ring_mesh_gain_x"] = pg.Gain(), rg.Gain()
		fmt.Println(pg)
		fmt.Println(rg)
	case "store":
		if err := storeBench(o, metrics); err != nil {
			return err
		}
	case "openloop":
		if err := openLoopBench(o, metrics); err != nil {
			return err
		}
	case "tenants":
		r, err := palermo.TenantIsolation(o)
		if err != nil {
			return err
		}
		metrics["tenant_mi_bits"] = r.MutualInfo
		fmt.Println(r)
	default:
		return fmt.Errorf("unknown figure %q", f)
	}
	return writeRecord(f, o, time.Since(start), metrics)
}
