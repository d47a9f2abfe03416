package oram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"palermo/internal/codec"
	"palermo/internal/rng"
)

// The determinism goldens: digests of the engine's complete observable
// trajectory, recorded once (at the commit before the engine's hot-path
// data structures were rebuilt) and compared on every run since. A
// representation change that drifts one RNG draw, leaf, slot offset, stash
// order or checkpoint field changes a digest. The checkpoint-encoding
// digests and the 2^21 entry were added later, recorded by the build before
// the value-typed state export was deleted.
//
//	go test ./internal/oram -run Golden -update   # re-record (only when the protocol itself changes)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from this build")

const goldenAccesses = 20000

// goldenDigests is one geometry's record.
type goldenDigests struct {
	Trace string `json:"trace"`         // per-access DataLeaf, Val, Reads, Writes, StashAfter, and every phase
	Bin   string `json:"bin,omitempty"` // the final checkpoint encoding (binDigest; Ring only)
}

func goldenConfigs() map[string]RingConfig {
	serving := PalermoRingConfig()
	serving.NLines = 1 << 15
	serving.Seed = 0x5eed
	serving.CountTraffic = true
	// At 2^21 lines the level-0 position map is past paged.DirectKeys, so
	// it is the sparse table while the levels above it are direct.
	straddle := serving
	straddle.NLines = 1 << 21
	paperPalermo := PalermoRingConfig()
	paperPalermo.Seed = 0x5eed
	paperBaseline := BandwidthRingConfig()
	paperBaseline.Seed = 0x5eed
	// (32,56,42) has 88 slots, the widest ZSASweep point: the only golden
	// whose consumed-slot bitsets use a second word.
	wide := serving
	wide.Z, wide.S, wide.A = 32, 56, 42
	return map[string]RingConfig{
		"serving-2^15-count-palermo":   serving,
		"serving-2^21-count-palermo":   straddle,
		"paper-2^28-address-palermo":   paperPalermo,
		"paper-2^28-address-baseline":  paperBaseline,
		"serving-2^15-address-palermo": func() RingConfig { c := serving; c.CountTraffic = false; return c }(),
		"wide-2^15-count-palermo":      wide,
		"wide-2^15-address-palermo":    func() RingConfig { c := wide; c.CountTraffic = false; return c }(),
	}
}

// pathGoldenConfigs are the PathORAM-family engines the simulator builds
// (internal/baselines), at 2^12–2^15 lines in address mode. Path has no
// checkpoint, so their records are trace digests only. The IR-ORAM entry
// interleaves AccessBypass with Access and DummyAccess (runGolden).
func pathGoldenConfigs() map[string]PathConfig {
	base := DefaultPathConfig()
	base.Seed = 0x5eed
	base.TreeTopBytes = 32 << 10
	at := func(lines uint64, edit func(*PathConfig)) PathConfig {
		c := base
		c.NLines = lines
		edit(&c)
		return c
	}
	return map[string]PathConfig{
		"path-2^15-pathoram": at(1<<15, func(*PathConfig) {}),
		"path-2^14-pageoram": at(1<<14, func(c *PathConfig) { c.Z, c.SiblingReads, c.PackDepth = 2, true, 2 }),
		"path-2^13-proram":   at(1<<13, func(c *PathConfig) { c.GroupLeafLines = 4 }),
		"path-2^13-laoram":   at(1<<13, func(c *PathConfig) { c.GroupLeafLines, c.FatRootScale = 4, 2 }),
		"path-2^12-iroram":   at(1<<12, func(c *PathConfig) { c.MidShrink = 2 }),
	}
}

type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestPlan folds everything a plan exposes into the trace digest. It
// reads the plan before the next access, which is all the count-only
// engine's plan-reuse contract allows.
func digestPlan(d *digestWriter, p *Plan) {
	d.u64(p.ReqID)
	d.u64(p.DataLeaf)
	d.u64(p.Val)
	d.u64(uint64(p.Reads()))
	d.u64(uint64(p.Writes()))
	if p.FromStash {
		d.u64(1)
	} else {
		d.u64(0)
	}
	d.u64(uint64(len(p.StashAfter)))
	for _, n := range p.StashAfter {
		d.u64(uint64(n))
	}
	d.u64(uint64(len(p.Levels)))
	for _, la := range p.Levels {
		d.u64(uint64(la.Level))
		if la.Evict {
			d.u64(1)
		} else {
			d.u64(0)
		}
		d.u64(uint64(len(la.Phases)))
		for i := range la.Phases {
			ph := &la.Phases[i]
			d.u64(uint64(ph.Kind))
			d.u64(uint64(ph.NR))
			d.u64(uint64(ph.NW))
			d.u64(uint64(len(ph.Reads)))
			for _, a := range ph.Reads {
				d.u64(a)
			}
			d.u64(uint64(len(ph.Writes)))
			for _, a := range ph.Writes {
				d.u64(a)
			}
		}
	}
}

// paperScale reports whether cfg is a 2^28-line paper geometry, whose
// dense position map AppendState cannot afford: its encoding is 1.15 GB
// (Palermo) and 2.4 GB (baseline) of heap.
func paperScale(cfg RingConfig) bool { return cfg.NLines >= 1<<28 }

// binDigest is the SHA-256 of the engine's checkpoint encoding,
// AppendState's bytes. At paper scale it covers every section but the
// dense position map — the header, each level's counters, its stash
// (Stash.AppendState) and its buckets (Store.AppendState) — and the trace
// digest covers every leaf that map serves.
func binDigest(e *Ring) string {
	if !paperScale(e.Config()) {
		sum := sha256.Sum256(e.AppendState(nil))
		return hex.EncodeToString(sum[:])
	}
	buf := binary.LittleEndian.AppendUint64(nil, e.reqID)
	buf = binary.LittleEndian.AppendUint64(buf, e.lastDataLeaf)
	for _, w := range e.r.State() {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.spaces)))
	for _, sp := range e.spaces {
		buf = binary.LittleEndian.AppendUint64(buf, sp.Accesses)
		buf = binary.LittleEndian.AppendUint64(buf, sp.Evictor.State())
		buf = sp.Stash.AppendState(buf, sp)
		buf = sp.Store.AppendState(buf, sp)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// goldenOp draws the i-th operation of the mixed stream: 10 % dummies,
// the rest split evenly between reads and writes; half the addresses come
// from a 4096-line hot set (so blocks are found in the tree and in the
// stash, and buckets reshuffle), half are uniform over the space.
func goldenOp(r *rng.Rand, lines uint64) (dummy bool, pa uint64, write bool, val uint64) {
	kind := r.Uint64n(20)
	if kind < 2 {
		return true, 0, false, 0
	}
	if r.Uint64n(2) == 0 {
		pa = (r.Uint64n(4096) * 2654435761) % lines
	} else {
		pa = r.Uint64n(lines)
	}
	return false, pa, kind%2 == 0, r.Uint64()
}

// runGolden drives n operations of the golden stream over lines through
// e, folding every plan into d. With bypass set, every third real access
// goes through it instead of e.Access.
func runGolden(e Engine, lines uint64, bypass func(pa uint64, write bool, val uint64) *Plan, r *rng.Rand, d *digestWriter, n int) {
	for i := 0; i < n; i++ {
		dummy, pa, write, val := goldenOp(r, lines)
		switch {
		case dummy:
			digestPlan(d, e.DummyAccess())
		case bypass != nil && i%3 == 1:
			digestPlan(d, bypass(pa, write, val))
		default:
			digestPlan(d, e.Access(pa, write, val))
		}
	}
}

// runRingGolden drives a Ring engine through the golden stream.
func runRingGolden(e *Ring, r *rng.Rand, d *digestWriter, n int) {
	runGolden(e, e.Config().NLines, nil, r, d, n)
}

var goldenPath = filepath.Join("testdata", "golden.json")

func readGolden(t *testing.T) map[string]goldenDigests {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenDigests{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestGoldenTrajectories(t *testing.T) {
	got := map[string]goldenDigests{}
	for name, cfg := range goldenConfigs() {
		e, err := NewRing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := &digestWriter{h: sha256.New()}
		runRingGolden(e, rng.New(0xfeed), d, goldenAccesses)
		got[name] = goldenDigests{Trace: d.sum(), Bin: binDigest(e)}
	}
	for name, cfg := range pathGoldenConfigs() {
		e, err := NewPath(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var bypass func(uint64, bool, uint64) *Plan
		if cfg.MidShrink > 0 {
			bypass = e.AccessBypass
		}
		d := &digestWriter{h: sha256.New()}
		runGolden(e, cfg.NLines, bypass, rng.New(0xfeed), d, goldenAccesses)
		got[name] = goldenDigests{Trace: d.sum()}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d geometries, test has %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden recorded", name)
			continue
		}
		if g.Trace != w.Trace {
			t.Errorf("%s: access trajectory drifted from the recorded golden\n got  %s\n want %s", name, g.Trace, w.Trace)
		}
		if g.Bin != w.Bin {
			t.Errorf("%s: final checkpoint encoding drifted from the recorded golden\n got  %s\n want %s", name, g.Bin, w.Bin)
		}
	}
}

// TestGoldenAcrossCheckpoint restores the golden engine half-way from its
// own AppendState encoding through LoadState, and requires the second half
// to land on the same recorded digests: the encoding round-trips everything
// the trajectory depends on. The 2^21 entry runs it over a sparse level-0
// position map under direct upper levels; paper scale is skipped
// (paperScale).
func TestGoldenAcrossCheckpoint(t *testing.T) {
	want := readGolden(t)
	for name, cfg := range goldenConfigs() {
		if paperScale(cfg) {
			continue
		}
		e, err := NewRing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := &digestWriter{h: sha256.New()}
		r := rng.New(0xfeed)
		runRingGolden(e, r, d, goldenAccesses/2)
		e2, err := NewRing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rd := codec.NewReader(e.AppendState(nil))
		if err := e2.LoadState(rd); err != nil {
			t.Fatalf("%s: LoadState: %v", name, err)
		}
		if rd.Len() != 0 {
			t.Fatalf("%s: %d bytes left after LoadState", name, rd.Len())
		}
		runRingGolden(e2, r, d, goldenAccesses-goldenAccesses/2)
		if got := (goldenDigests{Trace: d.sum(), Bin: binDigest(e2)}); got != want[name] {
			t.Errorf("%s: trajectory through a checkpoint differs from the golden\n got  %+v\n want %+v", name, got, want[name])
		}
	}
}

// TestMaxStateBytesBoundsGolden: the golden serving engine's encoding,
// after its whole stream, stays within MaxStateBytes.
func TestMaxStateBytesBoundsGolden(t *testing.T) {
	cfg := goldenConfigs()["serving-2^15-count-palermo"]
	e, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runRingGolden(e, rng.New(0xfeed), &digestWriter{h: sha256.New()}, goldenAccesses)
	bound, err := MaxStateBytes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.AppendState(nil)); uint64(n) > bound {
		t.Fatalf("%d-byte state beyond the %d-byte bound", n, bound)
	}
}
