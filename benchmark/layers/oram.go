// Package layers holds the benchmark's only imports of palermo/internal:
// one file per layer, so a refactor that moves a constructor needs a
// one-file change here and none in the benchmark proper.
package layers

import "palermo/internal/oram"

// Ring is the engine rung of the ladder: the Ring engine configured the
// way shard.New configures it (PalermoRingConfig, count-only traffic).
type Ring struct {
	r     *oram.Ring
	epoch uint64
}

// NewRing builds an engine over blocks lines.
func NewRing(blocks, seed uint64) (*Ring, error) {
	cfg := oram.PalermoRingConfig()
	cfg.NLines = blocks
	cfg.Seed = seed
	cfg.CountTraffic = true
	r, err := oram.NewRing(cfg)
	if err != nil {
		return nil, err
	}
	return &Ring{r: r}, nil
}

// Access runs one protocol access and returns the DRAM lines its plan moved.
func (g *Ring) Access(id uint64, write bool) int {
	if write {
		g.epoch++
	}
	p := g.r.Access(id, write, g.epoch)
	return p.Reads() + p.Writes()
}

// TopHits is the line movements the resident tree-top absorbed so far.
func (g *Ring) TopHits() uint64 { return g.r.TopHits() }

// StashPeak is the highest stash occupancy over all hierarchy levels.
func (g *Ring) StashPeak() int {
	peak := 0
	for l := 0; l < g.r.Levels(); l++ {
		if m := g.r.StashMax(l); m > peak {
			peak = m
		}
	}
	return peak
}
