// Command palermo-sec runs the §VI security analyses on a Palermo
// simulation: response-timing mutual information (Table I / Eq. 1) and
// leaf-stream uniformity.
//
// Usage:
//
//	palermo-sec -workload redis -requests 4000
//	palermo-sec -workload llm -protocol RingORAM
//	palermo-sec -serve-trace traces.json
//
// -serve-trace switches the audit target from the simulator to the live
// serving path: it consumes the per-shard leaf traces a
// `palermo-load -trace FILE` run recorded (any config — the tree-top
// cache included, since it does not touch leaf selection)
// and asserts each shard's exposed leaf stream is statistically uniform.
// A non-uniform shard exits non-zero, so CI can gate on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"palermo"
	"palermo/internal/security"
)

func main() {
	wl := flag.String("workload", "redis", "Table II workload")
	protoName := flag.String("protocol", "Palermo", "protocol to analyze")
	requests := flag.Int("requests", 4000, "measured ORAM requests")
	seed := flag.Uint64("seed", 1, "simulation seed")
	serveTrace := flag.String("serve-trace", "", "audit recorded serving leaf traces (palermo-load -trace output) instead of simulating")
	flag.Parse()

	if *serveTrace != "" {
		if err := auditServingTraces(*serveTrace); err != nil {
			fatal(err)
		}
		return
	}

	var proto palermo.Protocol
	found := false
	for _, p := range palermo.Protocols() {
		if strings.EqualFold(p.String(), *protoName) {
			proto, found = p, true
			break
		}
	}
	if !found {
		fatal(fmt.Errorf("unknown protocol %q", *protoName))
	}

	res, err := palermo.Run(proto, *wl, palermo.Options{
		Requests: *requests, Seed: *seed, KeepLatency: true,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s on %s: %d requests measured\n", proto, *wl, res.Requests)

	tim, err := security.AnalyzeTiming(res.RespLat.Samples(), res.FromStash)
	if err != nil {
		fatal(err)
	}
	fmt.Println("timing channel:", tim)
	if tim.MutualInfo < 0.01 {
		fmt.Println("  PASS: attacker gains no better than random from response timings")
	} else {
		fmt.Println("  WARNING: elevated mutual information (small-sample noise shrinks with -requests)")
	}

	leaf, err := security.AnalyzeLeaves(res.Leaves, res.NumLeaves, 64)
	if err != nil {
		fatal(err)
	}
	fmt.Println("leaf stream:   ", leaf)
	if leaf.Uniform(0.001) {
		fmt.Println("  PASS: exposed path selections indistinguishable from uniform")
	} else {
		fmt.Println("  FAIL: leaf stream deviates from uniform")
	}

	fmt.Printf("DRAM view:      row-hit %.1f%%, bank-conflict %.1f%% (workload-independent under ORAM)\n",
		res.Mem.RowHitRate*100, res.Mem.RowConflictRate*100)
}

// auditServingTraces runs the leaf-uniformity analysis over recorded
// serving traces, one verdict per shard. Every shard must pass: the
// serving path's obliviousness argument is per-shard (each shard is an
// independent ORAM over its own id subspace), so a single skewed stream
// is a finding even if the union happens to average out.
func auditServingTraces(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var traces []palermo.LeafTrace
	if err := json.Unmarshal(buf, &traces); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if len(traces) == 0 {
		return fmt.Errorf("%s holds no shard traces", path)
	}
	failed := 0
	for _, tr := range traces {
		if len(tr.Leaves) == 0 {
			return fmt.Errorf("shard %d recorded no leaf observations — re-run palermo-load with -trace and a read workload", tr.Shard)
		}
		leaf, err := security.AnalyzeLeaves(tr.Leaves, tr.NumLeaves, 64)
		if err != nil {
			return fmt.Errorf("shard %d: %w", tr.Shard, err)
		}
		verdict := "PASS"
		if !leaf.Uniform(0.001) {
			verdict, failed = "FAIL", failed+1
		}
		fmt.Printf("shard %d: %d leaf observations over %d leaves — %s (%v)\n",
			tr.Shard, len(tr.Leaves), tr.NumLeaves, verdict, leaf)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d shard leaf streams deviate from uniform", failed, len(traces))
	}
	fmt.Printf("serving path: all %d shard leaf streams indistinguishable from uniform\n", len(traces))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "palermo-sec:", err)
	os.Exit(1)
}
