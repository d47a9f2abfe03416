// Command palermo-bench regenerates the paper's evaluation figures and
// tables as text output.
//
// Usage:
//
//	palermo-bench -fig 10              # one figure (3,4,9,10,11,12,13,14a,14b,15)
//	palermo-bench -all                 # everything
//	palermo-bench -fig 10 -requests 2000
//	palermo-bench -fig 10 -parallel 8  # sweep cells on 8 workers (0 = all cores)
//	palermo-bench -run Palermo:llm     # one protocol on one workload
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"palermo"
	"palermo/internal/loadgen"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 3, 4, 9, 10, 11, 12, 13, 14a, 14b, 15, tab2, tab3, ablations, tenants, openloop")
	all := flag.Bool("all", false, "regenerate every figure and table")
	requests := flag.Int("requests", 800, "measured ORAM requests per data point")
	run := flag.String("run", "", "single run as Protocol:workload (e.g. Palermo:llm)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "sweep worker pool size: 0 = all cores, 1 = serial (results are identical either way)")
	asCSV := flag.Bool("csv", false, "emit CSV instead of text tables (figures 3,4,9,10,11,12,13,14a,14b)")
	flag.Parse()

	o := palermo.Options{Requests: *requests, Seed: *seed, Workers: *parallel}
	csvOut = *asCSV

	if *run != "" {
		if err := single(*run, o); err != nil {
			fatal(err)
		}
		return
	}
	if *all {
		for _, f := range []string{"tab2", "tab3", "3", "4", "9", "10", "11", "12", "13", "14a", "14b", "15", "ablations", "tenants", "openloop"} {
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

// openLoopBench is the coordinated-omission sweep: measure the store's
// closed-loop saturation throughput, then drive fresh stores open-loop
// at offered rates spanning saturation (0.5x to 2x) and print the
// intended-send-time latency curve plus the overload-shedding response.
// Each rate gets a fresh store so every percentile is run-exact (never
// lifetime-weighted), and the admission deadline keeps the overloaded
// points shedding instead of queueing without bound — the admitted ops'
// p99 stays bounded while the shed count carries the excess.
func openLoopBench(o palermo.Options) error {
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
		_, p99 := loadgen.FormatRunLat(r.RunReadLat, r.ReadOverflow)
		fmt.Printf("  %.2fx %12.0f %12.0f %10d %22s\n", mul, rate, r.AchievedRate, r.ShedOps, p99)
	}
	return nil
}

// figure regenerates one figure and prints it.
func figure(f string, o palermo.Options) error {
	var (
		r   csvAble
		err error
	)
	switch f {
	case "3":
		r, err = palermo.Fig3(o)
	case "4":
		r, err = palermo.Fig4(o)
	case "9":
		r, err = palermo.Fig9(o)
	case "10":
		r, err = palermo.Fig10(o)
	case "11":
		r, err = palermo.Fig11(o)
	case "12":
		r, err = palermo.Fig12(o)
	case "13":
		r, err = palermo.Fig13(o)
	case "14a":
		r, err = palermo.Fig14a(o)
	case "14b":
		r, err = palermo.Fig14b(o)
	case "15":
		fmt.Println(palermo.Fig15(8))
		return nil
	case "tab2":
		fmt.Println(palermo.TableII())
		return nil
	case "tab3":
		fmt.Println(palermo.TableIII())
		return nil
	case "ablations":
		return ablations(o)
	case "openloop":
		return openLoopBench(o)
	case "tenants":
		t, err := palermo.TenantIsolation(o)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	default:
		return fmt.Errorf("unknown figure %q", f)
	}
	if err != nil {
		return err
	}
	return emit(r)
}

// ablations prints the protocol ablations and the path-vs-ring mesh gain.
func ablations(o palermo.Options) error {
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
	fmt.Println(pg)
	fmt.Println(rg)
	return nil
}
