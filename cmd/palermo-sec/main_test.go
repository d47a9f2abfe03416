package main

import (
	"io"
	"strings"
	"testing"

	"palermo"
)

// TestReportFailsOnSkewedLeaves: the simulator path's leaf verdict is an
// error, not only a printed FAIL, so palermo-sec exits non-zero on it. The
// same run passes with the leaves it really exposed.
func TestReportFailsOnSkewedLeaves(t *testing.T) {
	res, err := palermo.Run(palermo.ProtoPalermo, "redis", palermo.Options{Requests: 1000, Seed: 1, KeepLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := report(io.Discard, res); err != nil {
		t.Fatalf("real leaf stream refused: %v", err)
	}
	planted := make([]uint64, len(res.Leaves)) // every access exposes leaf 0
	res.Leaves = planted
	err = report(io.Discard, res)
	if err == nil || !strings.Contains(err.Error(), "deviates from uniform") {
		t.Fatalf("constant leaf stream: err = %v, want a uniformity failure", err)
	}
}
