package main

import (
	"fmt"
	"time"

	"palermo/benchmark/layers"
)

// measure is one reported value. N is the number of samples behind it
// where that means something (requests timed, set-ups, rounds).
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is what one run of one workload reports; in a result file, what
// its untraced and its traced run report together.
type result struct {
	Workload  string             `json:"-"`
	Trace     bool               `json:"-"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // first few failed requests
	Problems  []string           `json:"problems,omitempty"` // what makes the run invalid though its outputs were correct
	Metrics   map[string]measure `json:"metrics"`
}

func (res *result) set(name string, v float64, n int) {
	for _, list := range [][]metric{endToEnd, perLayer, simLayer} {
		for _, m := range list {
			if m.Name == name {
				res.Metrics[name] = measure{Value: v, Unit: m.Unit, N: n}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not in spec.go")
}

func (res *result) problem(format string, a ...any) {
	res.Problems = append(res.Problems, fmt.Sprintf(format, a...))
}

// runServing measures one serving workload: set-up, warm-up, closed phase,
// paced phase and, on a durable engine, restart, and reports the end-to-end
// metrics. Traced, it adds the layer metrics: the counts the program
// exports, read around the closed phase (nothing records spans while the
// phases are timed; a poll of the snapshot files counts checkpoints), and
// then the layer ladder.
func runServing(wl *workload, sz size, seed uint64, trace bool, outDir string) (*result, error) {
	res := &result{Workload: wl.Name, Trace: trace, Metrics: map[string]measure{}}
	r := &run{wl: wl, sz: sz, seed: seed, ver: make(versions, sz.Blocks), base: time.Now()}
	if wl.Zipf {
		r.zipf = newZipf(sz.Blocks, zipfTheta)
	}
	r.ref = newReference()
	defer r.ref.close()

	// Set-up, several times over: the extra systems are torn down at once
	// and the last one is measured.
	setups := sz.Setups
	if trace {
		setups = 1 // a traced run's setup_s goes nowhere
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if r.sys != nil {
			if err := r.sys.destroy(); err != nil {
				return nil, err
			}
		}
		before := r.ref.speed(sz.RefBurst)
		sys, el, err := newSystem(wl, sz.Blocks, sz.Shards, seed, outDir, r.ver)
		if err != nil {
			return nil, err
		}
		r.sys = sys
		setupS = append(setupS, el.Seconds()*(before+r.ref.speed(sz.RefBurst))/2)
	}
	defer func() { r.sys.destroy() }()

	r.closedPhase("warm", sz.Warm)

	var watch *checkpointWatch
	if trace {
		watch = r.watchCheckpoints()
	}
	before, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	closed := r.closedPhase("closed", sz.Closed)
	after, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	heapMB := liveHeapMB() - r.ref.heapMB // the phase's sample buffers are garbage by now
	paced := r.pacedPhase()
	checkpoints := 0
	if trace {
		checkpoints = watch.perShard()
	}
	var restartS float64
	var diskBytes int64
	if wl.durable() {
		before := r.ref.speed(sz.RefBurst)
		if restartS, diskBytes, err = r.restart(); err != nil {
			return nil, err
		}
		restartS *= (before + r.ref.speed(sz.RefBurst)) / 2
	}
	res.Attempted, res.Failed, res.Failures = r.attempted.Load(), r.failed.Load(), r.failures

	// Counts are deltas over the closed phase.
	bt, at := before.traffic, after.traffic
	engineOps := float64(at.Reads + at.Writes - bt.Reads - bt.Writes)
	dramLines := float64(at.DRAMReads + at.DRAMWrites - bt.DRAMReads - bt.DRAMWrites)
	res.set("setup_s", median(setupS), len(setupS))
	res.set("ops_per_s", closed.opsPerS, closed.rounds)
	res.set("cpu_us_per_op", closed.cpuUsPerOp, closed.rounds)
	res.set("read_p50_us", closed.read.p50(), closed.read.n)
	res.set("read_p99_us", closed.read.p99(), closed.read.n)
	res.set("paced_p50_us", paced.lat.p50(), paced.lat.n)
	res.set("paced_p99_us", paced.lat.p99(), paced.lat.n)
	res.set("heap_mb", heapMB, 1)
	res.set("dram_lines_per_op", share(dramLines, engineOps), int(engineOps))
	res.set("fail_share", share(float64(res.Failed), float64(res.Attempted)), int(res.Attempted))
	if wl.WriteShare > 0 {
		res.set("write_p50_us", closed.write.p50(), closed.write.n)
		res.set("write_p99_us", closed.write.p99(), closed.write.n)
	}
	if wl.durable() {
		res.set("restart_s", restartS, 1)
		res.set("disk_bytes_per_block", float64(diskBytes)/float64(sz.Blocks), 1)
	}
	if paced.lagP99 > float64(sz.Tick)/1e3 {
		res.problem("paced phase invalid, not slow: generator lag p99 %.0f us exceeds the %v tick", paced.lagP99, sz.Tick)
	}
	if !trace {
		return res, nil
	}

	// Counts the program and the process export, per block operation the
	// callers completed.
	ops := float64(closed.ops)
	bs, as := before.stats, after.stats
	reads, writes := float64(as.Reads-bs.Reads), float64(as.Writes-bs.Writes)
	topHits := float64(at.TreeTopHits - bt.TreeTopHits)
	res.set("oram.treetop_hit_share", share(topHits, dramLines+topHits), int(dramLines+topHits))
	slotHits, slotMisses := float64(at.SlotCacheHits-bt.SlotCacheHits), float64(at.SlotCacheMisses-bt.SlotCacheMisses)
	res.set("backend.slotcache_hit_share", share(slotHits, slotHits+slotMisses), int(slotHits+slotMisses))
	issued := float64(at.PrefetchIssued - bt.PrefetchIssued)
	res.set("shard.prefetch_used_share", share(float64(at.PrefetchUsed-bt.PrefetchUsed), issued), int(issued))
	res.set("shard.prefetch_stale_share", share(float64(at.PrefetchStale-bt.PrefetchStale), issued), int(issued))
	fsyncs := float64(after.fsyncN - before.fsyncN)
	res.set("backend.fsync_per_kop", share(fsyncs*1000, ops), int(fsyncs))
	res.set("backend.fsync_ms", share(float64(after.fsyncT-before.fsyncT)/1e6, fsyncs), int(fsyncs))
	res.set("backend.write_bytes_per_block", share(float64(after.diskWrite-before.diskWrite), writes), int(writes))
	res.set("backend.checkpoints", float64(checkpoints), 1)
	// The program exports queue and execution latency only as summaries of
	// everything since the store was built, prefill included.
	res.set("serve.queue_p50_us", as.QueueLat.P50Us, int(as.QueueLat.N))
	res.set("serve.queue_p99_us", as.QueueLat.P99Us, int(as.QueueLat.N))
	res.set("serve.exec_p50_us", as.ExecLat.P50Us, int(as.ExecLat.N))
	res.set("serve.exec_p99_us", as.ExecLat.P99Us, int(as.ExecLat.N))
	res.set("serve.dedup_share", share(float64(as.DedupHits-bs.DedupHits), reads), int(reads))
	res.set("serve.sheds", float64(as.Sheds-bs.Sheds), 1)
	res.set("serve.prefetch_planned_per_read", share(float64(as.PrefetchPlanned-bs.PrefetchPlanned), reads), int(reads))
	netOps := float64(after.net.Ops - before.net.Ops)
	res.set("client.frames_per_op", share(float64(after.net.FramesSent-before.net.FramesSent), netOps), int(netOps))
	res.set("client.merged_share", share(float64(after.net.MergedOps-before.net.MergedOps), netOps), int(netOps))
	res.set("cluster.reroutes", float64(after.epoch-before.epoch), 1)
	res.set("proc.allocs_per_op", share(float64(after.mallocs-before.mallocs), ops), int(ops))
	res.set("proc.alloc_bytes_per_op", share(float64(after.allocBytes-before.allocBytes), ops), int(ops))
	res.set("proc.gc_cpu_share", share(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU), 1)
	res.set("gen.host_speed_share", closed.hostSpeed, closed.rounds)
	res.set("gen.lag_p50_us", paced.lagP50, paced.lagN)
	res.set("gen.lag_p99_us", paced.lagP99, paced.lagN)
	if wl.Name == "kv-wal" && checkpoints < 3 && sz.Closed >= time.Second {
		res.problem("kv-wal completed %d checkpoints per shard, want at least 3", checkpoints)
	}

	sealNs, openNs, err := layers.SealOpenNs([]byte("palermo-demo-key"), sz.MicroIters)
	if err != nil {
		return nil, err
	}
	res.set("crypt.seal_ns", sealNs, sz.MicroIters)
	res.set("crypt.open_ns", openNs, sz.MicroIters)
	if wl.Target == "store" {
		for _, name := range []string{"wire.encode_ns", "wire.parse_ns", "wire.bytes_per_op"} {
			res.set(name, 0, 0)
		}
	} else {
		n := sz.MicroIters / wl.Burst
		wc, err := layers.WireRoundTrip(wl.Burst, n)
		if err != nil {
			return nil, err
		}
		res.set("wire.encode_ns", wc.EncodeNs, n)
		res.set("wire.parse_ns", wc.ParseNs, n)
		res.set("wire.bytes_per_op", wc.Bytes, n)
	}
	if err := runLadder(r, res, outDir); err != nil {
		return nil, err
	}
	return res, nil
}
