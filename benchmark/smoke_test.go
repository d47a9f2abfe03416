package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// TestSmoke runs every workload, traced, at toy size, so that tier-1
// `go test ./...` exercises every path of the benchmark: set-up, both
// phases, restart verification, the ladder and the span file.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	sz := smokeSize()
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	known := map[string]bool{}
	for _, list := range [][]metric{endToEnd, perLayer, simLayer} {
		for _, m := range list {
			known[m.Name] = true
		}
	}
	// The simulator runs beside the serving workloads: the sizes are toy
	// sizes and no timing is asserted, only wall time saved.
	results := map[string]*result{}
	var mu sync.Mutex
	t.Run("run", func(t *testing.T) {
		for _, serving := range []bool{true, false} {
			t.Run(map[bool]string{true: "serving", false: "sim"}[serving], func(t *testing.T) {
				t.Parallel()
				for i := range workloads {
					if wl := &workloads[i]; wl.serving() == serving {
						res, err := runOne(wl, sz, 7, true, dir)
						if err != nil {
							t.Errorf("%s: %v", wl.Name, err)
							continue
						}
						mu.Lock()
						results[wl.Name] = res
						mu.Unlock()
					}
				}
			})
		}
	})
	if len(results) != len(workloads) {
		t.FailNow()
	}
	for i := range workloads {
		wl := &workloads[i]
		res := results[wl.Name]
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed: %v", wl.Name, res.Failed, res.Attempted, res.Failures)
		}
		if !name.MatchString(wl.Name) {
			t.Errorf("workload name %q", wl.Name)
		}
		for n := range res.Metrics {
			if !name.MatchString(n) || !known[n] {
				t.Errorf("%s: metric name %q is malformed or not in spec.go", wl.Name, n)
			}
		}
		for _, m := range endToEnd {
			if _, ok := res.Metrics[m.Name]; ok != m.appliesTo(wl) {
				t.Errorf("%s: end-to-end metric %s reported=%v, applies=%v", wl.Name, m.Name, ok, m.appliesTo(wl))
			}
		}
		if !wl.serving() {
			for _, m := range simLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s: layer metric %s missing", wl.Name, m.Name)
				}
			}
			continue
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: layer metric %s missing", wl.Name, m.Name)
			}
		}

		// Layer shares are all >= 0 and sum to the top rung, up to the
		// residual the run reports.
		var sum float64
		for _, n := range []string{"oram.self_us", "backend.busy_us_per_op", "shard.self_us", "serve.self_us", "net.self_us", "cluster.self_us"} {
			v := res.Metrics[n].Value
			if v < 0 {
				t.Errorf("%s: %s = %v", wl.Name, n, v)
			}
			sum += v
		}
		top, residual := res.Metrics["ladder.top_us"].Value, res.Metrics["ladder.residual_share"].Value
		if top <= 0 || math.Abs(sum-top*(1+residual)) > 1e-6*top {
			t.Errorf("%s: layer shares sum to %v, top rung %v, residual %v", wl.Name, sum, top, residual)
		}

		// The span file: one JSON object per line with the documented keys.
		f, err := os.Open(filepath.Join(dir, "trace-"+wl.Name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		lines := 0
		for sc.Scan() {
			if lines++; lines > 1 {
				continue
			}
			var sp map[string]any
			if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
				t.Fatalf("%s: span line: %v", wl.Name, err)
			}
			for _, k := range []string{"workload", "rung", "req", "name", "start_ns", "end_ns", "parent"} {
				if _, ok := sp[k]; !ok {
					t.Errorf("%s: span lacks %q: %s", wl.Name, k, sc.Bytes())
				}
			}
		}
		f.Close()
		if lines < sz.LadderOps/wl.Batch {
			t.Errorf("%s: %d spans for %d requests", wl.Name, lines, sz.LadderOps/wl.Batch)
		}
	}

	// Counts repeat: workloads that share a request stream (same seed, mix
	// and id distribution) must count the same engine traffic on the
	// ladder's oram rung, whatever sits above it; the simulator checks its
	// own repeat inside runSim and reports a difference as a failed request.
	for _, pair := range [][2]string{{"kv-wal", "kv-blockfile"}, {"net-wal", "cluster-wal"}} {
		a := results[pair[0]].Metrics["oram.dram_lines_per_op"].Value
		b := results[pair[1]].Metrics["oram.dram_lines_per_op"].Value
		if a != b || a == 0 {
			t.Errorf("oram.dram_lines_per_op: %s %v, %s %v", pair[0], a, pair[1], b)
		}
	}
	if g := results["sim-fig10"].Metrics["sim_palermo_gmean_x"].Value; g <= 1 {
		t.Errorf("sim_palermo_gmean_x = %v", g)
	}
}

// TestContract holds BENCHMARK.json and spec.go to each other.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths %v", c.Paths)
	}

	var serving []workload
	for _, wl := range workloads {
		if wl.serving() {
			serving = append(serving, wl)
		}
	}
	if len(c.Workloads) != len(serving) {
		t.Fatalf("%d workloads, spec.go has %d serving workloads", len(c.Workloads), len(serving))
	}
	for i, wl := range serving {
		if c.Workloads[i].Name != wl.Name || c.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: %+v, spec.go has %s: %s", i, c.Workloads[i], wl.Name, wl.Why)
		}
		if len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters", wl.Name, len(wl.Why))
		}
	}

	want := driverMetrics(false)
	if len(c.EndToEnd) != len(want) {
		t.Fatalf("%d end_to_end metrics, spec.go marks %d", len(c.EndToEnd), len(want))
	}
	for i, m := range want {
		got := c.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d: %+v, spec.go has %+v", i, got, m)
		}
		for _, wl := range serving {
			if !m.appliesTo(&wl) {
				t.Errorf("%s is marked Driver but does not apply to %s", m.Name, wl.Name)
			}
		}
	}
	want = driverMetrics(true)
	if len(c.PerLayer) != len(want) {
		t.Fatalf("%d per_layer metrics, spec.go has %d", len(c.PerLayer), len(want))
	}
	for i, m := range want {
		if got := c.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit {
			t.Errorf("per_layer %d: %+v, spec.go has %+v", i, got, m)
		}
	}
}

// TestCompare checks the verdicts of -compare on files made up for it.
func TestCompare(t *testing.T) {
	file := func(ops ...float64) string {
		f := resultFile{Seed: 1}
		for _, v := range ops {
			f.Runs = append(f.Runs, map[string]*result{"kv-wal": {Metrics: map[string]measure{
				"ops_per_s": {Value: v, Unit: "1/s"},
			}}})
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := file(1000, 1010, 990, 1005)
	for _, c := range []struct {
		other   string
		verdict string
		fail    bool
	}{
		{file(1001, 1000, 999, 1002), "ok", false},
		{file(500, 501, 499, 500), "worse", true},
		{file(1000, 1400, 700, 1000), "unresolved", false},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, []string{base, c.other})
		if (err != nil) != c.fail {
			t.Errorf("want failure=%v, got %v\n%s", c.fail, err, out.String())
		}
		if !regexp.MustCompile(`kv-wal\s+ops_per_s.*` + c.verdict).Match(out.Bytes()) {
			t.Errorf("want verdict %q:\n%s", c.verdict, out.String())
		}
	}
}
