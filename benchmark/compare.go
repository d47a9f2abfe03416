package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles judges result file B against base A: one row per workload
// and end-to-end metric with both medians, B as a ratio of A, the bound,
// and a verdict. "worse": B's median is worse than A's by more than the
// bound. "unresolved": it is not, but the spread between either file's own
// runs is wider than the bound, so the files cannot show the metric
// unchanged. Layer metrics follow without a verdict. Any "worse" row is an
// error.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d", len(paths))
	}
	var files [2]resultFile
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if len(files[i].Runs) == 0 {
			return fmt.Errorf("%s: no runs", p)
		}
	}
	a, b := &files[0], &files[1]
	fmt.Fprintf(w, "A: %s  seed %d, %d set(s), %s, %d cpus, commit %s\n", paths[0], a.Seed, len(a.Runs), a.Host.Filesystem, a.Host.NumCPU, a.Host.Commit)
	fmt.Fprintf(w, "B: %s  seed %d, %d set(s), %s, %d cpus, commit %s\n", paths[1], b.Seed, len(b.Runs), b.Host.Filesystem, b.Host.NumCPU, b.Host.Commit)
	fmt.Fprintf(w, "%-13s %-28s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "spread", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			spread := max(quartileSpread(va), quartileSpread(vb))
			verdict := "ok"
			switch {
			case m.Better == "lower" && mb > ma*(1+m.Bound), m.Better == "higher" && mb < ma*(1-m.Bound):
				verdict = "worse"
				worse++
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-28s %14.4f %14.4f %9.4f %6.0f%% %6.1f%%  %s\n",
				wl.Name, m.Name+" ("+m.Unit+")", ma, mb, share(mb, ma), m.Bound*100, spread*100, verdict)
		}
	}
	fmt.Fprintln(w, "\nlayer metrics (no bound):")
	for _, wl := range workloads {
		for _, m := range append(append([]metric(nil), perLayer...), simLayer...) {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0) {
				continue
			}
			fmt.Fprintf(w, "%-13s %-34s %14.4f %14.4f %9.4f\n", wl.Name, m.Name+" ("+m.Unit+")", median(va), median(vb), share(median(vb), median(va)))
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the base by more than their bound", worse)
	}
	return nil
}
