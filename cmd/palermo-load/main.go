// Command palermo-load is a load generator for the sharded oblivious
// store service: N client goroutines issue read/write requests against
// an in-process palermo.ShardedStore, a palermo-server or a cluster of
// them, and the tool reports ops/sec plus latency
// percentiles — the throughput-vs-parallelism scalability methodology of
// the ThunderX2 HPC study applied to the serving path.
//
// Usage:
//
//	palermo-load                                  # 8 clients, 4 shards, 20000 ops
//	palermo-load -shards 1 -clients 8             # the no-sharding baseline
//	palermo-load -zipf 0.99 -read-ratio 0.95      # YCSB-style skewed reads
//	palermo-load -batch 16                        # reads issued as 16-id batches
//	palermo-load -duration 30s                    # time-bounded soak (no op arithmetic)
//	palermo-load -rate 50000 -duration 10s        # open-loop: offer 50k ops/s regardless of completions
//	palermo-load -admission 20ms                  # shed queued requests older than 20ms (in-process)
//	palermo-load -json out/                       # also write out/BENCH_load.json
//	palermo-load -dir /data/palermo               # durable WAL backend under -dir
//	palermo-load -dir /data/palermo -verify       # reopen a -dir store and verify it
//	palermo-load -addr 127.0.0.1:7070             # drive a palermo-server over TCP
//	palermo-load -addr HOST:PORT -conns 4 -stamp  # up to 4 sockets + stamp for -verify
//	palermo-load -addr A:7070,B:7070 -stamp       # drive a cluster through DialCluster
//
// With -addr the generator dials a running cmd/palermo-server instead of
// building an in-process store: palermo.Client carries the workload over
// real sockets (request pipelining, one frame per call), and the perf
// record is written as BENCH_net.json instead of BENCH_load.json — so the
// network tax over the in-process numbers is one diff away.
// Comma-separated addresses select the cluster-routing client instead:
// every id is routed to its owning node via the placement manifest,
// batches scatter/gather across nodes, live migrations mid-run are ridden
// out transparently, and the record becomes BENCH_cluster.json. Store
// geometry (shards, blocks, durable dir) belongs to the server in this
// mode; the handshake reports it back. Every target goes down one path:
// the run, the optional stamp, Close, the printout and the record.
// Counters and latency histograms are snapshotted before and after the
// run and recorded as their exact difference, so driving a long-lived
// server (whose cumulative stats span prior runs and other clients) still
// reports this run's work and its latency percentiles. -stamp writes the
// same deterministic verification payloads the -dir mode stamps, so a
// durable server that is then shut down can be re-verified locally with
// -dir/-verify (the net-smoke CI job's flow).
//
// By default the clients are closed-loop: each issues its next request
// when the previous completes, so the measured latency coordinates with
// the server and hides queueing delay under overload. -rate switches to
// open-loop generation: the run offers a fixed total rate on a
// deterministic Poisson schedule and measures latency from each
// operation's *intended* send time (the coordinated-omission
// correction), reporting offered vs achieved rate. Any run reports the
// operations the server shed with a retry status, counted per op.
//
// Every run is deterministic for a given -seed: client RNG streams are
// derived per client (open-loop arrival schedules included), and
// per-shard ORAM sequences depend only on each shard's request
// subsequence (arrival interleaving varies, results and obliviousness do
// not). The workload loop itself is internal/loadgen.
//
// With -dir, the run finishes with a deterministic stamp pass: payloads
// derived from (-seed, id) are written to the first min(blocks, 1024) ids
// before Close checkpoints the store. A second process running with the
// same -dir/-seed/-shards/-blocks and -verify reopens the directory and
// checks every stamped block reads back byte-identical — the
// crash-recovery smoke CI runs on every push. A directory a cluster node
// wrote is reopened as that node and checks the stamped ids it owns.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"strings"

	"palermo"
	"palermo/internal/cliconf"
	"palermo/internal/cluster"
	"palermo/internal/loadgen"
	"palermo/internal/rng"
)

// stampBlocks is how many ids the durable stamp pass writes.
const stampBlocks = 1024

func main() {
	storeFlags := cliconf.StoreFlags(flag.CommandLine)
	clients := flag.Int("clients", 8, "client goroutines")
	ops := flag.Int("ops", 20000, "total operations across all clients (mutually exclusive with -duration)")
	duration := flag.Duration("duration", 0, "time-bounded run length, e.g. 30s (mutually exclusive with -ops)")
	readRatio := flag.Float64("read-ratio", 0.9, "fraction of operations that are reads")
	zipf := flag.Float64("zipf", 0, "Zipf skew theta (0 = uniform; 0.99 ~ YCSB)")
	batch := flag.Int("batch", 1, "reads per ReadBatch call (1 = single-op loop)")
	rate := flag.Float64("rate", 0, "open-loop offered load in total ops/sec (0 = closed loop; requires -batch 1)")
	jsonDir := flag.String("json", "", "directory to write the BENCH_load.json perf record into")
	figure := flag.String("figure", "", "override the perf-record figure name (default: load; net with one -addr, cluster with several)")
	traceFile := flag.String("trace", "", "record per-shard serving leaf traces to this JSON file (in-process mode)")
	verify := flag.Bool("verify", false, "reopen the -dir store and verify the stamped blocks instead of generating load")
	addr := flag.String("addr", "", "drive a remote palermo-server at HOST:PORT instead of an in-process store")
	conns := flag.Int("conns", 1, "most connections the client spreads calls over; a later one carries calls only past a full window (-addr mode)")
	stamp := flag.Bool("stamp", false, "write the deterministic verification stamp after the run (implied by -dir; with -addr it lands in the server's durable dir)")
	flag.Parse()

	opsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "ops" {
			opsSet = true
		}
		if *addr != "" {
			switch f.Name {
			case "shards", "blocks", "queue", "dir", "engine", "group-commit", "checkpoint-every", "verify", "trace", "admission":
				fatal(fmt.Errorf("-%s configures an in-process store; with -addr it belongs to the server", f.Name))
			}
		}
	})
	if *duration > 0 && opsSet {
		fatal(fmt.Errorf("-ops and -duration are mutually exclusive; pick one stopping rule"))
	}
	if *duration > 0 {
		*ops = 0
	}
	// The store flags also carry -seed, which the client streams and the
	// stamp pass derive from in every mode.
	cfg, err := storeFlags()
	if err != nil {
		fatal(err)
	}
	if *verify {
		if cfg.Dir == "" {
			fatal(fmt.Errorf("-verify requires -dir"))
		}
		if err := verifyDir(cfg); err != nil {
			fatal(err)
		}
		return
	}
	addrs := splitAddrs(*addr)
	if *addr != "" && len(addrs) == 0 {
		fatal(fmt.Errorf("-addr names no address"))
	}
	st, where, fig, err := open(cfg, addrs, *conns)
	if err != nil {
		fatal(err)
	}
	if *figure != "" {
		fig = *figure
	}
	if *traceFile != "" {
		st.(*palermo.ShardedStore).EnableTraces()
	}

	bound := fmt.Sprintf("%d ops", *ops)
	if *duration > 0 {
		bound = (*duration).String()
	}
	fmt.Printf("palermo-load: %s, %d shards, %d clients, %s (%.0f%% reads, zipf %.2f, batch %d) over %d blocks\n",
		where, st.Shards(), *clients, bound, *readRatio*100, *zipf, *batch, st.Blocks())

	opts := loadgen.Options{
		Clients:   *clients,
		Ops:       *ops,
		Duration:  *duration,
		ReadRatio: *readRatio,
		ZipfTheta: *zipf,
		Batch:     *batch,
		Rate:      *rate,
		Seed:      cfg.Seed,
	}
	res, err := loadgen.Run(st, opts)
	if err != nil {
		fatal(err)
	}
	metrics := loadMetrics(res, opts)
	// Read a client's wire counters before the stamp pass, so the recorded
	// frame statistics describe the measured workload only.
	wireLine := ""
	if c, ok := st.(interface{ NetStats() palermo.ClientNetStats }); ok {
		net := c.NetStats()
		metrics["conns"] = float64(*conns)
		metrics["frames_sent"] = float64(net.FramesSent)
		wireLine = fmt.Sprintf("  wire: %d frames for %d ops\n", net.FramesSent, net.Ops)
	}
	if cfg.Dir != "" || *stamp {
		if err := stampTarget(st, cfg.Seed); err != nil {
			fatal(err)
		}
	}
	if *traceFile != "" {
		if err := writeTraces(*traceFile, st.(*palermo.ShardedStore)); err != nil {
			fatal(err)
		}
	}
	shards := st.Shards()
	if err := st.Close(); err != nil {
		fatal(err)
	}

	printResult(res, opts.Rate)
	fmt.Print(wireLine)
	if *jsonDir != "" {
		if err := writeRecord(*jsonDir, fig, *ops, cfg.Seed, shards, res, metrics); err != nil {
			fatal(err)
		}
	}
}

// target is a store a run drives: an in-process palermo.ShardedStore, a
// palermo.Client (one -addr) or a palermo.ClusterClient (several).
type target interface {
	loadgen.Target
	Shards() int
	Close() error
}

// open builds the target from the store flags, or dials it when addrs is
// not empty. It also says where the load goes and names the default perf
// record: load, net or cluster.
func open(cfg palermo.ShardedStoreConfig, addrs []string, conns int) (target, string, string, error) {
	switch len(addrs) {
	case 0:
		st, err := palermo.NewShardedStore(cfg)
		if err != nil {
			return nil, "", "", err
		}
		return st, "in-process", "load", nil
	case 1:
		c, err := palermo.Dial(addrs[0], palermo.ClientConfig{Conns: conns})
		if err != nil {
			return nil, "", "", err
		}
		return c, fmt.Sprintf("remote %s over %d conns", addrs[0], conns), "net", nil
	}
	cc, err := palermo.DialCluster(addrs, palermo.ClientConfig{Conns: conns})
	if err != nil {
		return nil, "", "", err
	}
	return cc, fmt.Sprintf("cluster %s (epoch %d) over %d conns", strings.Join(addrs, ","), cc.Epoch(), conns), "cluster", nil
}

// writeTraces records every shard's serving leaf trace as JSON, the input
// cmd/palermo-sec -serve consumes for the uniformity audit of the live
// path. Captured after the run but before Close, while the workers are
// idle — the traces cover the measured workload plus any stamp pass.
func writeTraces(path string, st *palermo.ShardedStore) error {
	traces := st.LeafTraces()
	buf, err := json.MarshalIndent(traces, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	total := 0
	for _, tr := range traces {
		total += len(tr.Leaves)
	}
	fmt.Printf("  recorded %d serving leaf observations across %d shards to %s\n",
		total, len(traces), path)
	return nil
}

// stampTarget writes the deterministic verification payloads a later
// -verify pass recomputes. Works over both in-process stores and remote
// clients (the stamp then lands in the server's durable dir).
func stampTarget(st loadgen.Target, seed uint64) error {
	n := stampCount(st.Blocks())
	for id := uint64(0); id < n; id++ {
		if err := st.Write(id, stampPayload(seed, id)); err != nil {
			return err
		}
	}
	fmt.Printf("  stamped %d verification blocks\n", n)
	return nil
}

// printResult prints a run; rate is its offered open-loop rate (0 for a
// closed loop).
func printResult(res loadgen.Result, rate float64) {
	stats := res.Stats
	fmt.Printf("  wall %.2fs  ops/sec %.0f  (%d reads, %d writes, %d dedup fan-outs)\n",
		res.Wall.Seconds(), res.OpsPerSec(), stats.Reads, stats.Writes, stats.DedupHits)
	if rate > 0 {
		fmt.Printf("  open loop: offered %.0f ops/sec, achieved %.0f (%d shed under overload)\n",
			rate, res.OpsPerSec(), stats.Sheds)
		rp50, rp99 := loadgen.FormatRunLat(res.RunReadLat, res.ReadOverflow)
		wp50, wp99 := loadgen.FormatRunLat(res.RunWriteLat, res.WriteOverflow)
		fmt.Printf("  intended-send lat: read p50 %sµs  p99 %sµs (n=%d)  |  write p50 %sµs  p99 %sµs (n=%d)\n",
			rp50, rp99, res.RunReadLat.N, wp50, wp99, res.RunWriteLat.N)
		if n := res.ReadOverflow + res.WriteOverflow; n > 0 {
			fmt.Printf("  %d samples at or above the %dµs histogram ceiling: a percentile printed as >= is a lower bound\n",
				n, loadgen.LatCeilingUs)
		}
	} else if stats.Sheds > 0 {
		fmt.Printf("  %d ops shed under overload (excluded from counts and latency)\n", stats.Sheds)
	}
	fmt.Printf("  read  lat p50 %.0fµs  p99 %.0fµs  mean %.0fµs  (n=%d)\n",
		stats.ReadLat.P50Us, stats.ReadLat.P99Us, stats.ReadLat.MeanUs, stats.ReadLat.N)
	if stats.WriteLat.N > 0 {
		fmt.Printf("  write lat p50 %.0fµs  p99 %.0fµs  mean %.0fµs  (n=%d)\n",
			stats.WriteLat.P50Us, stats.WriteLat.P99Us, stats.WriteLat.MeanUs, stats.WriteLat.N)
	}
	fmt.Printf("  queue wait p50 %.0fµs  p99 %.0fµs  |  execute p50 %.0fµs  p99 %.0fµs\n",
		stats.QueueLat.P50Us, stats.QueueLat.P99Us, stats.ExecLat.P50Us, stats.ExecLat.P99Us)
	fmt.Printf("  DRAM lines/op %.1f  stash peak %d\n",
		res.Traffic.AmplificationFactor, res.Traffic.StashPeak)
	tr := res.Traffic
	if tr.TreeTopHits > 0 {
		fmt.Printf("  tree-top hits %d (%.1f KiB of path I/O absorbed)\n",
			tr.TreeTopHits, float64(tr.TreeTopHits)*palermo.BlockSize/1024)
	}
}

func loadMetrics(res loadgen.Result, o loadgen.Options) map[string]float64 {
	stats := res.Stats
	m := map[string]float64{
		"ops_per_sec":   res.OpsPerSec(),
		"clients":       float64(o.Clients),
		"read_ratio":    o.ReadRatio,
		"zipf_theta":    o.ZipfTheta,
		"read_p50_us":   stats.ReadLat.P50Us,
		"read_p99_us":   stats.ReadLat.P99Us,
		"write_p50_us":  stats.WriteLat.P50Us,
		"write_p99_us":  stats.WriteLat.P99Us,
		"queue_p50_us":  stats.QueueLat.P50Us,
		"queue_p99_us":  stats.QueueLat.P99Us,
		"exec_p50_us":   stats.ExecLat.P50Us,
		"exec_p99_us":   stats.ExecLat.P99Us,
		"dedup_hits":    float64(stats.DedupHits),
		"shed_ops":      float64(stats.Sheds),
		"lines_per_op":  res.Traffic.AmplificationFactor,
		"tree_top_hits": float64(res.Traffic.TreeTopHits),
		"bytes_saved":   float64(res.Traffic.TreeTopHits) * palermo.BlockSize,
	}
	if o.Rate > 0 {
		m["offered_rate"] = o.Rate
		m["achieved_rate"] = res.OpsPerSec()
		m["openloop_read_p50_us"] = res.RunReadLat.P50Us
		m["openloop_read_p99_us"] = res.RunReadLat.P99Us
		m["openloop_write_p50_us"] = res.RunWriteLat.P50Us
		m["openloop_write_p99_us"] = res.RunWriteLat.P99Us
		// Samples at or above the histogram ceiling, and a flag per p99
		// that landed among them: such a value is the ceiling (a lower
		// bound), not a measurement.
		m["openloop_read_overflow"] = float64(res.ReadOverflow)
		m["openloop_write_overflow"] = float64(res.WriteOverflow)
		if loadgen.Clipped(res.RunReadLat, res.ReadOverflow, 0.99) {
			m["openloop_read_p99_lower_bound"] = 1
		}
		if loadgen.Clipped(res.RunWriteLat, res.WriteOverflow, 0.99) {
			m["openloop_write_p99_lower_bound"] = 1
		}
	}
	return m
}

func stampCount(blocks uint64) uint64 {
	if blocks < stampBlocks {
		return blocks
	}
	return stampBlocks
}

// stampPayload derives the deterministic 64-byte verification payload for
// (seed, id); the -verify process recomputes it independently.
func stampPayload(seed, id uint64) []byte {
	r := rng.New(seed ^ (0x9e3779b97f4a7c15 * (id + 1)))
	buf := make([]byte, palermo.BlockSize)
	for off := 0; off < palermo.BlockSize; off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], r.Uint64())
	}
	return buf
}

// verifyDir reopens a durable directory and checks the stamp pass
// survived: every stamped block it holds must read back byte-identical,
// and the recovered traffic counters must show the pre-restart history.
// A directory a cluster node wrote carries its persisted node state; it
// is reopened offline (no listener) as that node, which holds only the
// shards its manifest assigns to it, so the ids it does not own live on
// other nodes and are skipped — running -verify per node covers the
// whole stamp.
func verifyDir(cfg palermo.ShardedStoreConfig) (err error) {
	t0 := time.Now()
	ns, err := cluster.LoadNodeState(cfg.Dir)
	if err != nil {
		return err
	}
	var st interface {
		Blocks() uint64
		Read(id uint64) ([]byte, error)
		Traffic() palermo.TrafficReport
		Close() error
	}
	owns := func(uint64) bool { return true }
	where := "store " + cfg.Dir
	if ns == nil {
		if st, err = palermo.NewShardedStore(cfg); err != nil {
			return err
		}
	} else {
		// Geometry is the manifest's, not the flags' (the flag defaults are
		// for standalone stores and need not match this cluster).
		cfg.Blocks, cfg.Shards = 0, 0
		node, err := palermo.NewClusterNode(palermo.ClusterNodeConfig{Addr: ns.Addr, Store: cfg}, ns.Manifest)
		if err != nil {
			return err
		}
		st, owns = node, node.Owns
		where = fmt.Sprintf("node %s (epoch %d, shards %v)", ns.Addr, node.Epoch(), node.OwnedShards())
	}
	defer func() {
		if cerr := st.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("verify: close: %w", cerr)
		}
	}()
	rep := st.Traffic()
	if rep.Writes == 0 {
		return fmt.Errorf("verify: reopened %s recovered zero writes — nothing persisted", where)
	}
	n := stampCount(st.Blocks())
	checked := uint64(0)
	for id := range n {
		if !owns(id) {
			continue
		}
		got, err := st.Read(id)
		if err != nil {
			return fmt.Errorf("verify: read of stamped block %d: %w", id, err)
		}
		if want := stampPayload(cfg.Seed, id); !bytes.Equal(got, want) {
			return fmt.Errorf("verify: stamped block %d diverged after recovery", id)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("verify: %s owns none of the %d stamped blocks", where, n)
	}
	fmt.Printf("palermo-load: verified %d of %d stamped blocks on %s in %.2fs (recovered history: %d reads, %d writes, stash peak %d)\n",
		checked, n, where, time.Since(t0).Seconds(), rep.Reads, rep.Writes, rep.StashPeak)
	return nil
}

// splitAddrs parses the -addr flag's comma-separated address list.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// benchRecord is the JSON record -json writes, one run's metrics. The
// figure name ("load" for in-process, "net" for -addr) doubles as the file
// name suffix, so one sweep leaves both records side by side for the
// network-tax diff.
type benchRecord struct {
	Figure      string             `json:"figure"`
	Requests    int                `json:"requests"`
	Seed        uint64             `json:"seed"`
	Workers     int                `json:"workers"` // shard workers here
	Cores       int                `json:"cores"`
	WallSeconds float64            `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics"`
}

func writeRecord(dir, figure string, ops int, seed uint64, shards int, res loadgen.Result, metrics map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if ops == 0 { // time-bounded run: record the completed count
		ops = int(res.Stats.Reads + res.Stats.Writes)
	}
	rec := benchRecord{
		Figure:      figure,
		Requests:    ops,
		Seed:        seed,
		Workers:     shards,
		Cores:       runtime.GOMAXPROCS(0),
		WallSeconds: res.Wall.Seconds(),
		Metrics:     metrics,
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := "BENCH_" + figure + ".json"
	return os.WriteFile(filepath.Join(dir, name), append(buf, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "palermo-load:", err)
	os.Exit(1)
}
