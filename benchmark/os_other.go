//go:build !linux

package main

import "time"

// The benchmark's reference host is Linux; elsewhere it still runs, with
// the process-level numbers it cannot read reported as zero.

func cpuTime() time.Duration { return 0 }

func sleepFor(d time.Duration) { time.Sleep(d) }

func filesystem(string) string { return "unknown" }
