package oram

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"palermo/internal/otree"
	"palermo/internal/rng"
)

func smallRing(variant RingVariant, seed uint64) *Ring {
	e, err := NewRing(RingConfig{
		NLines:    4096,
		Z:         4,
		S:         5,
		A:         3,
		PosLevels: 2,
		Seed:      seed,
		Variant:   variant,
	})
	if err != nil {
		panic(err)
	}
	return e
}

func smallPath(seed uint64) *Path {
	e, err := NewPath(PathConfig{
		NLines:    4096,
		Z:         4,
		PosLevels: 2,
		Seed:      seed,
	})
	if err != nil {
		panic(err)
	}
	return e
}

// TestRingConfigValidate: the shapes the engine refuses, each with an error
// that names what is wrong, next to the widest it accepts.
func TestRingConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		z, s, a int
		want    string // "" = accepted
	}{
		{"paper", 16, 27, 20, ""},
		{"widest ZSASweep point", 32, 56, 42, ""},
		{"at the slot limit", 64, 64, 1, ""},
		{"one slot beyond the limit", 64, 65, 1, "Z+S = 129 slots exceeds the 128-slot bucket limit"},
		{"no dummy budget", 4, 0, 3, "Z/S/A must be positive"},
	} {
		cfg := RingConfig{NLines: 4096, Z: tc.z, S: tc.s, A: tc.a}
		err := cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestLevelBlocksLimit: both engines refuse a data tree of 2^32-1 or more
// blocks, counted in DataSlotLines-line blocks, because a bucket stores a
// block id in 32 bits; one block fewer is accepted.
func TestLevelBlocksLimit(t *testing.T) {
	for _, tc := range []struct {
		lines     uint64
		slotLines int
		ok        bool
	}{
		{MaxLevelBlocks, 1, true},
		{MaxLevelBlocks + 1, 1, false},
		{1 << 32, 1, false},
		{2 * MaxLevelBlocks, 2, true},
		{2*MaxLevelBlocks + 1, 2, false},
		{1 << 40, 1, false},
	} {
		ring := RingConfig{NLines: tc.lines, Z: 16, S: 27, A: 20, DataSlotLines: tc.slotLines}
		path := PathConfig{NLines: tc.lines, Z: 4, DataSlotLines: tc.slotLines}
		for name, err := range map[string]error{"Ring": ring.Validate(), "Path": path.Validate()} {
			limit := fmt.Sprintf("the %d-block limit", uint64(MaxLevelBlocks))
			if tc.ok && err != nil || !tc.ok && (err == nil || !strings.Contains(err.Error(), limit)) {
				t.Errorf("%s over %d lines of %d: %v, want accepted = %v naming %s", name, tc.lines, tc.slotLines, err, tc.ok, limit)
			}
		}
	}
}

// checkAll reads every previously written PA and verifies the value.
func checkAll(t *testing.T, e Engine, ref map[uint64]uint64) {
	t.Helper()
	for pa, want := range ref {
		plan := e.Access(pa, false, 0)
		if plan.Val != want {
			t.Fatalf("read PA %d = %d, want %d", pa, plan.Val, want)
		}
	}
}

func TestRingReadYourWrites(t *testing.T) {
	for _, variant := range []RingVariant{VariantBaseline, VariantPalermo} {
		e := smallRing(variant, 7)
		r := rng.New(99)
		ref := make(map[uint64]uint64)
		for i := 0; i < 3000; i++ {
			pa := r.Uint64n(4096)
			if r.Float64() < 0.5 {
				val := r.Uint64()
				e.Access(pa, true, val)
				ref[pa] = val
			} else {
				plan := e.Access(pa, false, 0)
				if want, ok := ref[pa]; ok && plan.Val != want {
					t.Fatalf("variant %d: PA %d read %d, want %d (iter %d)", variant, pa, plan.Val, want, i)
				}
			}
		}
		checkAll(t, e, ref)
	}
}

func TestPathReadYourWrites(t *testing.T) {
	e := smallPath(3)
	r := rng.New(123)
	ref := make(map[uint64]uint64)
	for i := 0; i < 3000; i++ {
		pa := r.Uint64n(4096)
		val := r.Uint64()
		e.Access(pa, true, val)
		ref[pa] = val
	}
	checkAll(t, e, ref)
}

// The core ORAM invariant: every tree-resident block lies on the path from
// its currently mapped leaf to the root, and no block is in both the tree
// and the stash.
func checkInvariant(t *testing.T, spaces []*Space, leafOf func(l int, id uint64) uint64) {
	t.Helper()
	for l, sp := range spaces {
		sp.Store.ForEachBlock(func(node uint64, id otree.BlockID) {
			leaf := leafOf(l, uint64(id))
			if !sp.Geo.OnPath(leaf, node) {
				t.Fatalf("level %d block %d at node %d not on path of leaf %d", l, id, node, leaf)
			}
			if sp.Stash.Contains(id) {
				t.Fatalf("level %d block %d in both tree and stash", l, id)
			}
		})
	}
}

func TestRingPathInvariant(t *testing.T) {
	for _, variant := range []RingVariant{VariantBaseline, VariantPalermo} {
		e := smallRing(variant, 11)
		r := rng.New(5)
		for i := 0; i < 2000; i++ {
			e.Access(r.Uint64n(4096), r.Float64() < 0.3, r.Uint64())
		}
		leafOf := func(l int, id uint64) uint64 { return e.Posmap().Leaf(l, id) }
		checkInvariant(t, e.spaces, leafOf)
	}
}

func TestPathInvariant(t *testing.T) {
	e := smallPath(11)
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		e.Access(r.Uint64n(4096), r.Float64() < 0.3, r.Uint64())
	}
	leafOf := func(l int, id uint64) uint64 { return e.Posmap().Leaf(l, id) }
	checkInvariant(t, e.spaces, leafOf)
}

func TestRingStashBounded(t *testing.T) {
	for _, variant := range []RingVariant{VariantBaseline, VariantPalermo} {
		e := smallRing(variant, 21)
		r := rng.New(77)
		for i := 0; i < 5000; i++ {
			e.Access(r.Uint64n(4096), false, 0)
		}
		for l := 0; l < e.Levels(); l++ {
			if max := e.StashMax(l); max > 256 {
				t.Fatalf("variant %d level %d stash peaked at %d (> 256)", variant, l, max)
			}
		}
	}
}

func TestPathStashBounded(t *testing.T) {
	e := smallPath(21)
	r := rng.New(77)
	for i := 0; i < 5000; i++ {
		e.Access(r.Uint64n(4096), false, 0)
	}
	for l := 0; l < e.Levels(); l++ {
		if max := e.StashMax(l); max > 256 {
			t.Fatalf("level %d stash peaked at %d", l, max)
		}
	}
}

func TestRingFewerReadsThanPath(t *testing.T) {
	ring := smallRing(VariantBaseline, 1)
	path := smallPath(1)
	r1, r2 := rng.New(4), rng.New(4)
	ringReads, pathReads := 0, 0
	for i := 0; i < 500; i++ {
		ringReads += ring.Access(r1.Uint64n(4096), false, 0).Reads()
		pathReads += path.Access(r2.Uint64n(4096), false, 0).Reads()
	}
	if ringReads >= pathReads {
		t.Fatalf("Ring reads (%d) should be below Path reads (%d)", ringReads, pathReads)
	}
}

func TestRingPlanStructure(t *testing.T) {
	e := smallRing(VariantBaseline, 1)
	plan := e.Access(42, false, 0)
	if len(plan.Levels) != 3 {
		t.Fatalf("levels = %d", len(plan.Levels))
	}
	for l, la := range plan.Levels {
		if la.Level != l {
			t.Fatalf("level mismatch: %d vs %d", la.Level, l)
		}
		if la.Phases[0].Kind != PhaseLM {
			t.Fatalf("first phase = %v, want LM", la.Phases[0].Kind)
		}
		// Baseline ordering: LM, RP, [EP], ER.
		kinds := make([]PhaseKind, 0, 4)
		for _, ph := range la.Phases {
			kinds = append(kinds, ph.Kind)
		}
		if kinds[1] != PhaseRP || kinds[len(kinds)-1] != PhaseER {
			t.Fatalf("baseline phase order: %v", kinds)
		}
		// Path depth sanity: RP reads one line per uncached path node.
		depth := e.Space(l).Geo.Depth
		top := e.Space(l).Top.Levels()
		if got := len(la.Phases[1].Reads); got != depth+1-top {
			t.Fatalf("level %d RP reads = %d, want %d", l, got, depth+1-top)
		}
	}
}

func TestPalermoPlanOrdering(t *testing.T) {
	e := smallRing(VariantPalermo, 1)
	plan := e.Access(42, false, 0)
	for _, la := range plan.Levels {
		kinds := make([]PhaseKind, 0, 4)
		for _, ph := range la.Phases {
			kinds = append(kinds, ph.Kind)
		}
		// Palermo ordering: LM, ER (hoisted), RP, [EP].
		if kinds[0] != PhaseLM || kinds[1] != PhaseER || kinds[2] != PhaseRP {
			t.Fatalf("palermo phase order: %v", kinds)
		}
	}
}

func TestRingEvictionPeriod(t *testing.T) {
	e := smallRing(VariantBaseline, 1)
	evictions := 0
	const n = 30
	for i := 0; i < n; i++ {
		plan := e.Access(uint64(i), false, 0)
		if plan.Levels[0].Evict {
			evictions++
		}
	}
	if evictions != n/3 { // A = 3
		t.Fatalf("evictions = %d over %d accesses with A=3", evictions, n)
	}
}

func TestRingDeterminism(t *testing.T) {
	a := smallRing(VariantPalermo, 5)
	b := smallRing(VariantPalermo, 5)
	r1, r2 := rng.New(1), rng.New(1)
	for i := 0; i < 300; i++ {
		pa1, pa2 := r1.Uint64n(4096), r2.Uint64n(4096)
		p1 := a.Access(pa1, false, 0)
		p2 := b.Access(pa2, false, 0)
		if p1.Reads() != p2.Reads() || p1.Writes() != p2.Writes() {
			t.Fatalf("iteration %d: plans diverged (%d/%d vs %d/%d reads/writes)",
				i, p1.Reads(), p1.Writes(), p2.Reads(), p2.Writes())
		}
	}
}

func TestDummyAccessServesNothing(t *testing.T) {
	e := smallRing(VariantBaseline, 9)
	plan := e.DummyAccess()
	if !plan.Dummy {
		t.Fatal("dummy flag not set")
	}
	if plan.Reads() == 0 {
		t.Fatal("dummy access must still generate path traffic")
	}
}

func TestRingPrefetchWideSlots(t *testing.T) {
	cfg := RingConfig{
		NLines: 4096, Z: 4, S: 5, A: 3, PosLevels: 2, Seed: 1,
		DataSlotLines: 4, Variant: VariantPalermo,
	}
	e, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	ref := make(map[uint64]uint64)
	for i := 0; i < 1500; i++ {
		pa := r.Uint64n(4096)
		val := r.Uint64()
		e.Access(pa, true, val)
		// A whole slot group shares one tree block, so writes to any line
		// in the group store the group block's value.
		for g := pa / 4 * 4; g < pa/4*4+4; g++ {
			ref[g] = val
		}
	}
	checkAll(t, e, ref)
	// Wide data tree: RP reads 4 lines per uncached node at level 0.
	plan := e.Access(0, false, 0)
	depth := e.Space(0).Geo.Depth
	if got := len(plan.Levels[0].Phases[2].Reads); got != 4*(depth+1) {
		t.Fatalf("wide RP reads = %d, want %d", got, 4*(depth+1))
	}
	// Posmap trees stay narrow.
	if e.Space(1).Geo.SlotLines != 1 {
		t.Fatal("posmap trees must not widen")
	}
	// Stash tags stay bounded regardless of width (§VIII-B).
	if e.StashMax(0) > 256 {
		t.Fatalf("wide stash tags peaked at %d", e.StashMax(0))
	}
}

func TestPathGroupLeafSharesLeaf(t *testing.T) {
	cfg := DefaultPathConfig()
	cfg.NLines = 4096
	cfg.GroupLeafLines = 4
	e, err := NewPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Access(8, false, 0) // access remaps the whole group 8..11
	pm := e.Posmap()
	leaf := pm.Leaf(0, 8)
	for idx := uint64(9); idx < 12; idx++ {
		if pm.Leaf(0, idx) != leaf {
			t.Fatalf("group member %d not on shared leaf", idx)
		}
	}
}

func TestPathSiblingReads(t *testing.T) {
	cfg := DefaultPathConfig()
	cfg.NLines = 4096
	e1, _ := NewPath(cfg)
	cfg.SiblingReads = true
	e2, err := NewPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := rng.New(3), rng.New(3)
	base, sib := 0, 0
	for i := 0; i < 100; i++ {
		base += e1.Access(r1.Uint64n(4096), false, 0).Reads()
		sib += e2.Access(r2.Uint64n(4096), false, 0).Reads()
	}
	if sib <= base {
		t.Fatal("sibling reads must add traffic")
	}
	// Correctness must hold with sibling residency.
	ref := make(map[uint64]uint64)
	for i := 0; i < 1000; i++ {
		pa := r2.Uint64n(4096)
		v := r2.Uint64()
		e2.Access(pa, true, v)
		ref[pa] = v
	}
	checkAll(t, e2, ref)
}

func TestFatTreePathCorrectness(t *testing.T) {
	cfg := DefaultPathConfig()
	cfg.NLines = 4096
	cfg.GroupLeafLines = 4
	cfg.FatRootScale = 2
	e, err := NewPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	ref := make(map[uint64]uint64)
	for i := 0; i < 1500; i++ {
		pa := r.Uint64n(4096)
		v := r.Uint64()
		e.Access(pa, true, v)
		ref[pa] = v
	}
	checkAll(t, e, ref)
}

func TestMidShrinkGeometry(t *testing.T) {
	cfg := DefaultPathConfig()
	cfg.NLines = 1 << 16
	cfg.MidShrink = 2
	e, err := NewPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := e.Space(0).Geo
	if g.Levels[g.Depth/2].Z != 2 {
		t.Fatalf("mid-tree Z = %d, want 2", g.Levels[g.Depth/2].Z)
	}
	if g.Levels[0].Z != 4 || g.Levels[g.Depth].Z != 4 {
		t.Fatal("root/leaf Z must stay 4")
	}
	r := rng.New(31)
	ref := make(map[uint64]uint64)
	for i := 0; i < 800; i++ {
		pa := r.Uint64n(1 << 16)
		v := r.Uint64()
		e.Access(pa, true, v)
		ref[pa] = v
	}
	checkAll(t, e, ref)
}

func TestLayoutDisjoint(t *testing.T) {
	g1 := otree.Uniform(1024, 4, 5, 0, 0)
	g2 := otree.Uniform(256, 4, 5, 0, 0)
	laid := Layout([]otree.Geometry{g1, g2}, 4096)
	type region struct{ lo, hi uint64 }
	regions := []region{}
	for _, g := range laid {
		regions = append(regions, region{g.Base, g.Base + g.Footprint()})
		regions = append(regions, region{g.MetaBase, g.MetaBase + g.NumNodes()*otree.BlockBytes})
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("regions %d and %d overlap: %+v %+v", i, j, a, b)
			}
		}
	}
}

// Property: any interleaving of reads and writes over a small space keeps
// read-your-writes in the Palermo variant.
func TestPalermoRYWProperty(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		e := smallRing(VariantPalermo, seed)
		ref := make(map[uint64]uint64)
		for i, op := range ops {
			pa := uint64(op) % 4096
			if i%2 == 0 {
				e.Access(pa, true, uint64(i)+1)
				ref[pa] = uint64(i) + 1
			} else {
				got := e.Access(pa, false, 0).Val
				if want, ok := ref[pa]; ok && got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFullScaleGeometryMemoryBounded(t *testing.T) {
	// The paper-scale 16 GB space must build and serve accesses without
	// materializing the tree.
	cfg := PalermoRingConfig()
	cfg.TreeTopBytes = 256 << 10
	e, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for i := 0; i < 200; i++ {
		e.Access(r.Uint64n(cfg.NLines), false, 0)
	}
	if e.Space(0).Store.Materialized() > 200*64 {
		t.Fatalf("materialized %d buckets for 200 accesses", e.Space(0).Store.Materialized())
	}
}

// TestInvariantCheckerDetectsCorruption validates the test instrumentation
// itself: if the tree state is corrupted behind the protocol's back, the
// read path must surface it (a lost block reads as zero instead of its
// value), proving the correctness tests are actually sensitive.
func TestInvariantCheckerDetectsCorruption(t *testing.T) {
	e := smallRing(VariantPalermo, 99)
	e.Access(42, true, 12345)
	// Drain the stash so block 42 lands in the tree.
	for i := 0; i < 200; i++ {
		e.Access(uint64(i+100), false, 0)
	}
	if e.Space(0).Stash.Contains(42) {
		t.Skip("block 42 still stashed after drain; adjust iterations")
	}
	// Corrupt: remove the block from whichever bucket holds it.
	found := false
	e.Space(0).Store.ForEachBlock(func(node uint64, id otree.BlockID) {
		if id == 42 {
			found = true
		}
	})
	if !found {
		t.Fatal("block 42 neither stashed nor in tree: invariant already broken")
	}
	leaf := e.Posmap().Leaf(0, 42)
	path := e.Space(0).Geo.PathNodes(nil, leaf)
	removed := false
	for lv, n := range path {
		if b := e.Space(0).Store.Bucket(n); b.Contains(42) {
			if _, ok := e.Space(0).Store.ReadSlot(b, lv, 42); ok {
				removed = true // block consumed without entering the stash
			}
			break
		}
	}
	if !removed {
		t.Fatal("could not inject corruption")
	}
	if got := e.Access(42, false, 0).Val; got == 12345 {
		t.Fatal("read returned the value despite corruption: tests are not sensitive")
	}
}

// TestHierarchyIndexConsistency: the posmap levels consulted for a PA must
// cover it: level l's block index times 16^l contains the data group.
func TestHierarchyIndexConsistency(t *testing.T) {
	e := smallRing(VariantBaseline, 3)
	pm := e.Posmap()
	for _, pa := range []uint64{0, 1, 255, 256, 4095} {
		g := pa // DataSlotLines == 1
		i1 := pm.Index(1, g)
		i2 := pm.Index(2, g)
		if g/16 != i1 || i1/16 != i2 {
			t.Fatalf("pa %d: recursion indices %d/%d inconsistent", pa, i1, i2)
		}
	}
}
