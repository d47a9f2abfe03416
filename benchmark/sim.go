package main

import (
	"time"

	"palermo"
)

// paperGmean is the paper's headline: Palermo's geometric-mean speed-up
// over PathORAM across the Table II workloads (Fig. 10).
const paperGmean = 2.4

// runSim measures sim-fig10: the host time of one palermo.Fig10 and the
// simulated result, which a second, identical call must reproduce exactly.
// It has no set-up and holds no state worth weighing, so it reports neither
// setup_s nor heap_mb.
func runSim(wl *workload, sz size, seed uint64, trace bool) (*result, error) {
	res := &result{Workload: wl.Name, Trace: trace, Metrics: map[string]measure{}}
	opts := palermo.Options{Requests: sz.SimRequests, Workers: procs(), Seed: seed}
	ref := newReference()
	defer ref.close()

	before := ref.speed(sz.RefBurst)
	cpu0, t0 := cpuTime(), time.Now()
	fig, err := palermo.Fig10(opts)
	if err != nil {
		return nil, err
	}
	// Host time and CPU time are scaled like every timed metric (ref.go),
	// here by the host's speed before and after the one long call.
	speed := (before + ref.speed(sz.RefBurst)) / 2
	host := time.Duration(float64(time.Since(t0)) * speed)
	cpu := time.Duration(float64(cpuTime()-cpu0) * speed)
	again, err := palermo.Fig10(opts)
	if err != nil {
		return nil, err
	}

	gmean := 0.0
	for p, proto := range fig.Protocols {
		if proto == palermo.ProtoPalermo {
			gmean = fig.GMean[p]
		}
	}
	res.Attempted = 2
	if fig.String() != again.String() {
		res.Failed = 1
		res.Failures = []string{"sim_palermo_gmean_x does not repeat: two Fig10 calls with the same options differ"}
	}
	// An operation is one measured request of one of the figure's cells;
	// warm-up requests and the prefetch sweep behind PrORAM's column are
	// host time the figure needs but not operations it shows.
	simReqs := float64(len(fig.Workloads) * len(fig.Protocols) * sz.SimRequests)
	res.set("ops_per_s", simReqs/host.Seconds(), 1)
	res.set("cpu_us_per_op", float64(cpu)/1e3/simReqs, 1)
	res.set("fail_share", share(float64(res.Failed), float64(res.Attempted)), 2)
	res.set("sim_host_s", host.Seconds(), 1)
	res.set("sim_palermo_gmean_x", gmean, 2)
	if !trace {
		return res, nil
	}

	// Layer statistics of the modelled design, from one Palermo cell on the
	// llm workload at the figure's length. They are simulated, so they must
	// not move when only the host gets faster or slower.
	cell, err := palermo.Run(palermo.ProtoPalermo, "llm", palermo.Options{Requests: sz.SimRequests, Seed: seed})
	if err != nil {
		return nil, err
	}
	res.set("sim.host_us_per_req", host.Seconds()*1e6/simReqs, 1)
	res.set("dram.row_hit_share", cell.Mem.RowHitRate, int(cell.Requests))
	res.set("dram.bw_util_share", cell.Mem.BandwidthUtil, int(cell.Requests))
	res.set("ctrl.sync_share", cell.SyncFraction(), int(cell.Requests))
	res.set("core.avg_outstanding", cell.Mem.AvgOutstanding, int(cell.Requests))
	res.set("sim.paper_err_pct", (gmean-paperGmean)/paperGmean*100, 1)
	return res, nil
}
