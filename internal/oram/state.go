package oram

import (
	"encoding/binary"
	"fmt"
	"math"

	"palermo/internal/codec"
	"palermo/internal/otree"
	"palermo/internal/posmap"
	"palermo/internal/stash"
)

// Widths of AppendState's own fields: the request counter, the last data
// leaf, the four RNG words and the level count; then per level the access
// and eviction counters.
const (
	stateFixedBytes = 8 + 8 + 4*8 + 4
	spaceFixedBytes = 8 + 8
)

// AppendState appends the engine's complete functional state to dst in the
// checkpoint encoding, written straight from the live structures: the
// header above, every posmap level dense (posmap.AppendState), then per
// level its counters, its stash in insertion order (stash.AppendState) and
// its buckets in node order (otree.Store.AppendState). Field widths are
// fixed, so the length depends on entry counts and never on a leaf. Must be
// called at quiescence.
//
// Together with the sealed payloads held by the storage backend, the state
// is sufficient to resume the protocol exactly: an engine restored through
// LoadState produces the same leaf sequence, evictions and reshuffles the
// uninterrupted engine would have. It contains position maps and stash
// residency — trusted-controller secrets — so callers persisting it must
// seal it first (crypt.Sealer.Blob); handing it to an untrusted backend in
// plaintext would let the backend link block ids to their next paths.
func (e *Ring) AppendState(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, e.reqID)
	dst = binary.LittleEndian.AppendUint64(dst, e.lastDataLeaf)
	for _, w := range e.r.State() {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.spaces)))
	dst = e.pm.AppendState(dst)
	for _, sp := range e.spaces {
		dst = binary.LittleEndian.AppendUint64(dst, sp.Accesses)
		dst = binary.LittleEndian.AppendUint64(dst, sp.Evictor.State())
		dst = sp.Stash.AppendState(dst, sp)
		dst = sp.Store.AppendState(dst, sp)
	}
	return dst
}

// LoadState overwrites a freshly built engine (same configuration as the
// one encoded) with an AppendState encoding read from r. Every count,
// index, leaf and node is checked against the engine's geometry: a hostile
// input is an error, never a panic. Like the section decoders it calls, it
// records every failure in r and returns r's error. On error the engine is
// partly overwritten and must be discarded.
func (e *Ring) LoadState(r *codec.Reader) error {
	reqID, lastDataLeaf := r.Uint64(), r.Uint64()
	var rs [4]uint64
	for i := range rs {
		rs[i] = r.Uint64()
	}
	levels := r.Uint32()
	switch {
	case r.Err() != nil:
		return r.Err()
	case uint64(levels) != uint64(len(e.spaces)):
		return r.Failf("%d levels, engine has %d (configuration mismatch)", levels, len(e.spaces))
	case rs == [4]uint64{}:
		return r.Failf("all-zero RNG state")
	case lastDataLeaf >= e.spaces[0].Geo.NumLeaves():
		return r.Failf("last data leaf %d of %d", lastDataLeaf, e.spaces[0].Geo.NumLeaves())
	}
	if err := e.pm.LoadState(r); err != nil {
		return err
	}
	for l, sp := range e.spaces {
		accesses, evictor := r.Uint64(), r.Uint64()
		if r.Err() != nil {
			return r.Err()
		}
		if evictor >= sp.Geo.NumLeaves() {
			return r.Failf("level %d eviction counter %d of %d", l, evictor, sp.Geo.NumLeaves())
		}
		if err := sp.Stash.LoadState(r, e.pm.Blocks(l), sp.Geo.NumLeaves(), sp); err != nil {
			return err
		}
		if err := sp.Store.LoadState(r, e.pm.Blocks(l), sp); err != nil {
			return err
		}
		sp.Accesses = accesses
		sp.Evictor.Restore(evictor)
	}
	e.r.Restore(rs)
	e.reqID, e.lastDataLeaf = reqID, lastDataLeaf
	return nil
}

// MaxStateBytes bounds AppendState's output for any engine cfg builds,
// from the geometry and the field widths alone: every level's fixed
// fields, its dense position map, a header and the longest bitset for
// every tree node, and every block of the level at the wider of the stash
// and bucket entry widths — a block lives in its bucket or in the stash,
// never both. It refuses a configuration the format cannot describe (a
// level of 2^32 or more blocks, buckets too wide for the header).
func MaxStateBytes(cfg RingConfig) (uint64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	pm := newPosmap(cfg.NLines, cfg.DataSlotLines, cfg.PosLevels, nil)
	total := uint64(stateFixedBytes)
	for l := 0; l < pm.Levels(); l++ {
		blocks := pm.Blocks(l)
		if blocks > math.MaxUint32 {
			return 0, fmt.Errorf("oram: level %d has %d blocks, beyond the checkpoint format's 32-bit ids", l, blocks)
		}
		g := cfg.levelGeometry(l, blocks)
		node, err := otree.StateNodeBytes(g)
		if err != nil {
			return 0, err
		}
		total += spaceFixedBytes + stash.StateFixedBytes + otree.StateFixedBytes +
			blocks*(posmap.StateEntryBytes+max(stash.StateEntryBytes, otree.StateEntryBytes)) +
			g.NumNodes()*node
	}
	return total, nil
}
