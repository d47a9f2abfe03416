// Command palermo-trace generates and characterizes the Table II LLC-miss
// workload traces.
//
// Usage:
//
//	palermo-trace -list
//	palermo-trace -workload llm -n 20           # dump addresses
//	palermo-trace -characterize                 # locality/reuse table
//
// A trace is regenerated from its workload name and seed, the same inputs
// palermo.Run and palermo-bench take, so there is no trace file format.
package main

import (
	"flag"
	"fmt"
	"os"

	"palermo/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list workloads")
	name := flag.String("workload", "", "workload to dump")
	n := flag.Int("n", 20, "addresses to dump")
	char := flag.Bool("characterize", false, "print locality/reuse characteristics")
	lines := flag.Uint64("lines", 1<<28, "protected space in cache lines")
	seed := flag.Uint64("seed", 1, "trace seed")
	flag.Parse()

	switch {
	case *list:
		for _, wl := range workload.Names() {
			fmt.Println(wl)
		}
	case *char:
		fmt.Printf("%-8s %12s %12s %12s\n", "workload", "locality@4", "locality@64", "unique-frac")
		for _, wl := range workload.Names() {
			g1, err := workload.New(wl, *lines, *seed)
			if err != nil {
				fatal(err)
			}
			g2, _ := workload.New(wl, *lines, *seed)
			g3, _ := workload.New(wl, *lines, *seed)
			fmt.Printf("%-8s %11.1f%% %11.1f%% %11.1f%%\n", wl,
				workload.Locality(g1, 50000, 4)*100,
				workload.Locality(g2, 50000, 64)*100,
				workload.UniqueFrac(g3, 50000)*100)
		}
	case *name != "":
		g, err := workload.New(*name, *lines, *seed)
		if err != nil {
			fatal(err)
		}
		for i := 0; i < *n; i++ {
			pa, wr := g.Next()
			op := "R"
			if wr {
				op = "W"
			}
			fmt.Printf("%s 0x%012x\n", op, pa*64)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "palermo-trace:", err)
	os.Exit(1)
}
