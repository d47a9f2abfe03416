package ctrl_test

import (
	"testing"

	"palermo/internal/core"
	"palermo/internal/ctrl"
	"palermo/internal/dram"
	"palermo/internal/oram"
	"palermo/internal/rng"
	"palermo/internal/sim"
)

// countingEngine counts the real and dummy accesses an engine serves.
type countingEngine struct {
	oram.Engine
	real, dummies int
}

func (c *countingEngine) Access(pa uint64, write bool, val uint64) *oram.Plan {
	c.real++
	return c.Engine.Access(pa, write, val)
}

func (c *countingEngine) DummyAccess() *oram.Plan {
	c.dummies++
	return c.Engine.DummyAccess()
}

// TestWindowOpensOnceAtBoundary runs both timing controllers with a
// DummyPolicy that fires three times at the warmup boundary (and once in a
// while elsewhere). The measured window must open exactly once, before the
// first request after warmup, so Res.Dummies counts exactly the dummies
// issued after OnMeasureStart.
func TestWindowOpensOnceAtBoundary(t *testing.T) {
	const warmup, requests = 20, 30
	for _, ctl := range []ctrl.Controller{
		ctrl.Serial{Name: "serial"},
		core.Mesh{Name: "mesh", Columns: 4},
	} {
		ring, err := oram.NewRing(oram.RingConfig{
			NLines: 1 << 14, Z: 4, S: 5, A: 3, PosLevels: 2, Seed: 1,
			TreeTopBytes: 16 << 10, Variant: oram.VariantPalermo,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := &countingEngine{Engine: ring}
		atBoundary, lastFired := 0, -1
		opened, dummiesAtOpen := 0, 0
		cfg := ctrl.RunConfig{
			Requests: requests,
			Warmup:   warmup,
			DummyPolicy: func() bool {
				if e.real == warmup && atBoundary < 3 {
					atBoundary++
					return true
				}
				if e.real%7 == 3 && lastFired != e.real {
					lastFired = e.real
					return true
				}
				return false
			},
			OnMeasureStart: func() { opened, dummiesAtOpen = opened+1, e.dummies },
		}
		r := rng.New(5)
		src := ctrl.FuncSource(func() (uint64, bool) { return r.Uint64n(1 << 14), false })
		var eng sim.Engine
		res := ctl.Run(&eng, dram.New(&eng, dram.DefaultConfig()), e, src, cfg)

		name := res.Protocol
		if atBoundary != 3 {
			t.Fatalf("%s: policy fired %d times at the boundary, want 3", name, atBoundary)
		}
		if opened != 1 {
			t.Errorf("%s: measured window opened %d times, want 1", name, opened)
		}
		if want := uint64(e.dummies - dummiesAtOpen); res.Dummies != want {
			t.Errorf("%s: Res.Dummies = %d, want the %d issued after the window opened", name, res.Dummies, want)
		}
		if res.Requests != requests {
			t.Errorf("%s: %d measured requests, want %d", name, res.Requests, requests)
		}
	}
}
