package main

import (
	"runtime"
	"time"
)

// workload is one named traffic mix against one target.
type workload struct {
	Name       string
	Target     string  // "store", "client", "cluster" or "sim"
	Engine     string  // storage engine of a serving target
	Batch      int     // ids per request: 16 = one ReadBatch(16), 1 = single-block calls
	WriteShare float64 // share of single-block requests that are writes
	Zipf       bool    // Zipf(0.99) ids; uniform otherwise
	Burst      int     // concurrent requests a paced caller sends per tick
	Why        string
}

func (w *workload) durable() bool { return w.Engine == "wal" || w.Engine == "blockfile" }
func (w *workload) serving() bool { return w.Target != "sim" }

// zipfTheta is the skew of every Zipf workload (the YCSB default).
const zipfTheta = 0.99

var workloads = []workload{
	{Name: "embed-mem", Target: "store", Engine: "memory", Batch: 16, Zipf: true, Burst: 1,
		Why: "ReadBatch(16) over Zipf ids on the memory engine: the CPU path all workloads share (serve dedup, oram, crypt); backend and wire do nothing, so a change to either must not move it."},
	{Name: "kv-wal", Target: "store", Engine: "wal", Batch: 1, WriteShare: 0.5, Burst: 8,
		Why: "Single-block 50/50 read/write on uniform ids over the WAL engine: log append, group-commit fsync and O(stored blocks) checkpoints, whose stalls show in the paced tail."},
	{Name: "kv-blockfile", Target: "store", Engine: "blockfile", Batch: 1, WriteShare: 0.5, Burst: 8,
		Why: "The kv-wal traffic on the blockfile engine (pread/pwrite per op, O(metadata) checkpoints): the evidence for keeping, fixing or deleting an engine."},
	{Name: "net-wal", Target: "client", Engine: "wal", Batch: 1, WriteShare: 0.1, Zipf: true, Burst: 8,
		Why: "Single-block 90/10 over Zipf ids through palermo.Client to a loopback Server: wire, netserve window and client coalescing of concurrent small ops."},
	{Name: "cluster-wal", Target: "cluster", Engine: "wal", Batch: 1, WriteShare: 0.1, Zipf: true, Burst: 8,
		Why: "The net-wal traffic through ClusterClient to two one-shard ClusterNodes: routing, epoch checks and scatter/gather; the equivalence row against net-wal."},
	{Name: "sim-fig10", Target: "sim",
		Why: "palermo.Fig10, 8 protocols on 10 Table II workloads: host time to regenerate the headline figure, and the simulated result, which must repeat exactly."},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// size is everything about a run that scales with the time allowed.
type size struct {
	Blocks       uint64
	Shards       int
	Setups       int // set-ups timed per untraced run; setup_s is their median
	Warm         time.Duration
	Closed       time.Duration
	Paced        time.Duration
	Round        time.Duration // a timed phase is rounds of this length ...
	RefBurst     time.Duration // ... with a burst of the reference server between them
	Callers      int           // closed-phase callers
	PacedCallers int           // paced-phase callers
	Tick         time.Duration // paced-phase schedule
	LadderBlocks uint64
	LadderOps    int // block operations replayed on every rung
	SimRequests  int // Options.Requests of the timed Fig10
	MicroIters   int // iterations of the crypt and wire micro-measurements
}

// fullSize sizes a run that measures for the given number of seconds: half
// closed, half paced. A store holds 2^16 blocks (the issue's 2^18 takes
// 16 s to prefill on the blockfile engine, which the driver's time cap
// does not leave room for three times a run).
func fullSize(seconds int) size {
	d := time.Duration(seconds) * time.Second
	return size{
		Blocks: 1 << 16, Shards: 2, Setups: 3,
		Warm: time.Second, Closed: d / 2, Paced: d / 2,
		Round: 400 * time.Millisecond, RefBurst: 100 * time.Millisecond,
		Callers: 8, PacedCallers: 2, Tick: 2 * time.Millisecond,
		LadderBlocks: 1 << 14, LadderOps: 20000,
		SimRequests: 30 * seconds, MicroIters: 200000,
	}
}

// smokeSize is the toy size the package test runs at.
func smokeSize() size {
	return size{
		Blocks: 1 << 10, Shards: 2, Setups: 1,
		Warm: 20 * time.Millisecond, Closed: 100 * time.Millisecond, Paced: 100 * time.Millisecond,
		Round: 40 * time.Millisecond, RefBurst: 10 * time.Millisecond,
		Callers: 8, PacedCallers: 2, Tick: 2 * time.Millisecond,
		LadderBlocks: 1 << 10, LadderOps: 800,
		SimRequests: 40, MicroIters: 2000,
	}
}

// procs is the GOMAXPROCS every run uses.
func procs() int { return min(runtime.NumCPU(), 4) }

// metric describes one reported number.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the base by which it may worsen (-compare)
	// Driver marks the end-to-end metrics BENCHMARK.json bounds: the ones
	// every serving workload produces, non-zero, and that passed admission.
	// The rest are reported by traced runs under per_layer.
	Driver bool
	// On lists the workloads an end-to-end metric applies to; nil = every
	// serving workload.
	On []string
}

var (
	durableWorkloads = []string{"kv-wal", "kv-blockfile", "net-wal", "cluster-wal"}
	simOnly          = []string{"sim-fig10"}
	allWorkloads     = []string{"embed-mem", "kv-wal", "kv-blockfile", "net-wal", "cluster-wal", "sim-fig10"}
)

// endToEnd is the issue's sixteen end-to-end metrics. See README.md for
// why only some are in BENCHMARK.json, and for the measured spreads behind
// the bounds: timed metrics keep an interquartile spread of 4 to 13 % over
// ten seeds on the reference host even after scaling, so they get the
// widest bound the driver allows; counts repeat to 0.2 %.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Driver: true, On: allWorkloads},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "read_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25, On: durableWorkloads},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.25, On: durableWorkloads},
	{Name: "paced_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "paced_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25, Driver: true, On: allWorkloads},
	{Name: "fail_share", Unit: "share", Better: "lower", Bound: 0, On: allWorkloads},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.25, On: durableWorkloads},
	{Name: "disk_bytes_per_block", Unit: "bytes", Better: "lower", Bound: 0.02, On: durableWorkloads},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, Driver: true},
	{Name: "dram_lines_per_op", Unit: "lines", Better: "lower", Bound: 0.02, Driver: true},
	{Name: "sim_host_s", Unit: "s", Better: "lower", Bound: 0.25, On: simOnly},
	{Name: "sim_palermo_gmean_x", Unit: "x", Better: "higher", Bound: 0, On: simOnly},
}

// perLayer is the layer metrics, named by module. They have no bound;
// Better says which way a layer would rather see them go.
var perLayer = []metric{
	{Name: "oram.self_us", Unit: "us", Better: "lower"},
	{Name: "oram.access_us", Unit: "us", Better: "lower"},
	{Name: "oram.dram_lines_per_op", Unit: "lines", Better: "lower"},
	{Name: "oram.treetop_hit_share", Unit: "share", Better: "higher"},
	{Name: "oram.stash_peak", Unit: "count", Better: "lower"},
	{Name: "crypt.seal_ns", Unit: "ns", Better: "lower"},
	{Name: "crypt.open_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.get_us", Unit: "us", Better: "lower"},
	{Name: "backend.put_us", Unit: "us", Better: "lower"},
	{Name: "backend.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "backend.busy_us_per_op", Unit: "us", Better: "lower"},
	{Name: "backend.deferred_us_per_op", Unit: "us", Better: "lower"},
	{Name: "backend.fsync_per_kop", Unit: "count", Better: "lower"},
	{Name: "backend.fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.write_bytes_per_block", Unit: "bytes", Better: "lower"},
	{Name: "backend.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.checkpoints", Unit: "count", Better: "lower"},
	{Name: "backend.slotcache_hit_share", Unit: "share", Better: "higher"},
	{Name: "shard.self_us", Unit: "us", Better: "lower"},
	{Name: "shard.prefetch_used_share", Unit: "share", Better: "higher"},
	{Name: "shard.prefetch_stale_share", Unit: "share", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.exec_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.exec_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.dedup_share", Unit: "share", Better: "higher"},
	{Name: "serve.sheds", Unit: "count", Better: "lower"},
	{Name: "serve.prefetch_planned_per_read", Unit: "count", Better: "lower"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "net.self_us", Unit: "us", Better: "lower"},
	{Name: "client.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "client.merged_share", Unit: "share", Better: "higher"},
	{Name: "cluster.self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.reroutes", Unit: "count", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "gen.host_speed_share", Unit: "share", Better: "higher"},
	{Name: "gen.lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "ladder.top_us", Unit: "us", Better: "lower"},
	{Name: "ladder.residual_share", Unit: "share", Better: "lower"},
}

// simLayer is the layer metrics of sim-fig10, which the driver never runs.
var simLayer = []metric{
	{Name: "sim.host_us_per_req", Unit: "us", Better: "lower"},
	{Name: "dram.row_hit_share", Unit: "share", Better: "lower"},
	{Name: "dram.bw_util_share", Unit: "share", Better: "lower"},
	{Name: "ctrl.sync_share", Unit: "share", Better: "lower"},
	{Name: "core.avg_outstanding", Unit: "count", Better: "lower"},
	{Name: "sim.paper_err_pct", Unit: "%", Better: "lower"},
}

// appliesTo reports whether an end-to-end metric exists on a workload.
func (m *metric) appliesTo(wl *workload) bool {
	if m.On == nil {
		return wl.serving()
	}
	for _, n := range m.On {
		if n == wl.Name {
			return true
		}
	}
	return false
}
