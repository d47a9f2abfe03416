// Command benchmark is the repository's one benchmark: six named workloads
// over the whole stack, the end-to-end metrics a user of the store would
// see, and a layer ladder that says where each operation's time went.
// README.md in this directory describes it; BENCHMARK.json at the root of
// the repository is its contract with the driver.
//
//	go run ./benchmark -seed 1 -out r.json            every workload, untraced and traced
//	go run ./benchmark -compare a.json b.json         judge b against a
//	go run ./benchmark --workload kv-wal --seed 1 --seconds 10 --trace 0   one run, as the driver makes it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
		seed    = flag.Uint64("seed", 1, "the run's only source of randomness")
		seconds = flag.Int("seconds", defaultSeconds, "seconds each serving run measures: half closed phase, half paced phase")
		trace   = flag.Int("trace", 0, "with -workload: 1 = traced run reporting the per-layer metrics")
		out     = flag.String("out", "", "write the result file of a full set here")
		runs    = flag.Int("runs", 1, "full sets to run into the result file; -compare takes medians and spreads over them")
		outDir  = flag.String("outdir", filepath.Join("benchmark", "out"), "directory for store files and span traces")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs())

	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *wlName != "":
		err = driverRun(*wlName, *seed, *seconds, *trace != 0, *outDir)
	default:
		err = fullSet(*seed, *seconds, *runs, *out, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// runOne runs one workload once, in a scratch directory of its own under
// outDir that is gone when it returns. Span traces land in outDir itself.
func runOne(wl *workload, sz size, seed uint64, trace bool, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if !wl.serving() {
		return runSim(wl, sz, seed, trace)
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	res, err := runServing(wl, sz, seed, trace, scratch)
	if err == nil && trace {
		err = os.Rename(filepath.Join(scratch, "trace-"+wl.Name+".jsonl"), filepath.Join(outDir, "trace-"+wl.Name+".jsonl"))
	}
	return res, err
}

// driverMetrics is the metrics a driver run reports: untraced, the
// end-to-end metrics of BENCHMARK.json; traced, its per-layer metrics,
// which are the layer metrics and the end-to-end metrics that are not in
// its end_to_end list because some driver workload has no value for them.
func driverMetrics(trace bool) []metric {
	var ms []metric
	if trace {
		ms = append(ms, perLayer...)
	}
	for _, m := range endToEnd {
		simMetric := len(m.On) == 1 && m.On[0] == "sim-fig10"
		if m.Driver != trace && !simMetric {
			ms = append(ms, m)
		}
	}
	return ms
}

func driverRun(name string, seed uint64, seconds int, trace bool, outDir string) error {
	wl := findWorkload(name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	res, err := runOne(wl, fullSize(seconds), seed, trace, outDir)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]measure `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]measure{}}
	for _, m := range driverMetrics(trace) {
		line.Metrics[m.Name] = measure{Value: res.Metrics[m.Name].Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// printResult prints every metric the run produced by name, with its unit
// and the number of samples behind it, then what went wrong, if anything.
func printResult(w io.Writer, res *result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d requests attempted, %d failed\n", res.Workload, mode, res.Attempted, res.Failed)
	for _, list := range [][]metric{endToEnd, perLayer, simLayer} {
		for _, m := range list {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "%-32s %16.4f %-6s n=%d\n", m.Name, v.Value, v.Unit, v.N)
			}
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "INVALID:", p)
	}
}

// resultFile is what a full set writes and -compare reads.
type resultFile struct {
	Host    host   `json:"host"`
	Seed    uint64 `json:"seed"`
	Seconds int    `json:"seconds"`
	Size    size   `json:"size"`
	// Runs has one map per set, workload -> the end-to-end metrics of its
	// untraced run and the layer metrics of its traced run.
	Runs    []map[string]*result `json:"runs"`
	Spreads map[string]float64   `json:"spreads,omitempty"` // "workload/metric" -> quartile spread over the sets
}

// fullSet runs every workload untraced and traced, `runs` times over, and
// fails if any request failed or any run was invalid.
func fullSet(seed uint64, seconds, runs int, out, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	h, err := fingerprint(outDir)
	if err != nil {
		return err
	}
	sz := fullSize(seconds)
	file := resultFile{Host: h, Seed: seed, Seconds: seconds, Size: sz}
	bad := 0
	for i := 0; i < runs; i++ {
		set := map[string]*result{}
		for w := range workloads {
			wl := &workloads[w]
			var both *result
			for _, trace := range []bool{false, true} {
				res, err := runOne(wl, sz, seed, trace, outDir)
				if err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
				printResult(os.Stdout, res)
				if both == nil {
					both = res
					continue
				}
				both.Attempted += res.Attempted
				both.Failed += res.Failed
				both.Failures = append(both.Failures, res.Failures...)
				both.Problems = append(both.Problems, res.Problems...)
				for name, v := range res.Metrics {
					// End-to-end values stay those of the untraced run.
					if _, have := both.Metrics[name]; !have {
						both.Metrics[name] = v
					}
				}
			}
			if both.Failed > 0 || len(both.Problems) > 0 {
				bad++
			}
			set[wl.Name] = both
		}
		file.Runs = append(file.Runs, set)
	}
	if runs > 1 {
		file.Spreads = map[string]float64{}
		for _, wl := range workloads {
			for _, m := range endToEnd {
				if vals := file.values(wl.Name, m.Name); len(vals) > 1 {
					file.Spreads[wl.Name+"/"+m.Name] = quartileSpread(vals)
				}
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload runs failed requests or were invalid (see FAILED and INVALID lines above)", bad)
	}
	return nil
}

// values is one metric's value in every set of the file that has it.
func (f *resultFile) values(workload, name string) []float64 {
	var vs []float64
	for _, set := range f.Runs {
		if res := set[workload]; res != nil {
			if v, ok := res.Metrics[name]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}
