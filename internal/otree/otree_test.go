package otree

import (
	"testing"
	"testing/quick"

	"palermo/internal/rng"
)

func TestUniformGeometrySizing(t *testing.T) {
	g := Uniform(1024, 4, 5, 0, 1<<40)
	// Smallest depth with 4*2^D >= 1024 is D=8.
	if g.Depth != 8 {
		t.Fatalf("depth = %d, want 8", g.Depth)
	}
	if g.NumLeaves() != 256 || g.NumNodes() != 511 {
		t.Fatalf("leaves=%d nodes=%d", g.NumLeaves(), g.NumNodes())
	}
	if g.Footprint() != 511*9*BlockBytes {
		t.Fatalf("footprint = %d", g.Footprint())
	}
}

func TestPathNodes(t *testing.T) {
	g := Uniform(64, 4, 5, 0, 1<<40) // depth 4
	path := g.PathNodes(nil, 0)
	want := []uint64{0, 1, 3, 7, 15}
	if len(path) != len(want) {
		t.Fatalf("path len = %d", len(path))
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	last := g.PathNodes(nil, g.NumLeaves()-1)
	if last[g.Depth] != g.NumNodes()-1 {
		t.Fatalf("rightmost leaf node = %d, want %d", last[g.Depth], g.NumNodes()-1)
	}
}

func TestNodeLevelAndOnPath(t *testing.T) {
	g := Uniform(64, 4, 5, 0, 1<<40)
	for leaf := uint64(0); leaf < g.NumLeaves(); leaf++ {
		for l := 0; l <= g.Depth; l++ {
			n := g.NodeAt(leaf, l)
			if g.NodeLevel(n) != l {
				t.Fatalf("NodeLevel(%d) = %d, want %d", n, g.NodeLevel(n), l)
			}
			if !g.OnPath(leaf, n) {
				t.Fatalf("node %d should be on path of leaf %d", n, leaf)
			}
		}
	}
	if g.OnPath(0, g.NodeAt(g.NumLeaves()-1, g.Depth)) {
		t.Fatal("rightmost leaf node must not be on leaf 0's path")
	}
}

func TestSibling(t *testing.T) {
	g := Uniform(64, 4, 5, 0, 1<<40)
	if g.Sibling(0) != 0 {
		t.Fatal("root sibling must be root")
	}
	if g.Sibling(1) != 2 || g.Sibling(2) != 1 {
		t.Fatal("nodes 1,2 must be siblings")
	}
	if g.Sibling(7) != 8 || g.Sibling(8) != 7 {
		t.Fatal("nodes 7,8 must be siblings")
	}
}

func TestSlotAddrDisjoint(t *testing.T) {
	g := Uniform(256, 4, 5, 4096, 1<<40)
	seen := make(map[uint64]bool)
	for n := uint64(0); n < g.NumNodes(); n++ {
		lvl := g.NodeLevel(n)
		for s := 0; s < g.Levels[lvl].Slots(); s++ {
			a := g.SlotAddr(n, s)
			if a < g.Base || a >= g.Base+g.Footprint() {
				t.Fatalf("slot addr %d outside tree region", a)
			}
			if a%BlockBytes != 0 {
				t.Fatalf("unaligned slot addr %d", a)
			}
			if seen[a] {
				t.Fatalf("duplicate slot addr %d (node %d slot %d)", a, n, s)
			}
			seen[a] = true
		}
	}
}

func TestFatTreeShapes(t *testing.T) {
	g := FatTree(1024, 4, 5, 2.0, 0, 1<<40)
	if g.Levels[0].Z != 8 {
		t.Fatalf("root Z = %d, want 8 (2x scale)", g.Levels[0].Z)
	}
	if g.Levels[g.Depth].Z != 4 {
		t.Fatalf("leaf Z = %d, want 4", g.Levels[g.Depth].Z)
	}
	for l := 0; l < g.Depth; l++ {
		if g.Levels[l].Z < g.Levels[l+1].Z {
			t.Fatal("fat tree must taper toward leaves")
		}
	}
}

func TestCustomGeometry(t *testing.T) {
	specs := []LevelSpec{{4, 5}, {2, 3}, {4, 5}}
	g := Custom(specs, 0, 1<<40)
	if g.Depth != 2 {
		t.Fatalf("depth = %d", g.Depth)
	}
	// Level byte bases must account for the shrunken middle level.
	if got := g.SlotAddr(1, 0) - g.Base; got != uint64(9*BlockBytes) {
		t.Fatalf("level-1 base = %d", got)
	}
	if got := g.SlotAddr(3, 0) - g.Base; got != uint64((9+2*5)*BlockBytes) {
		t.Fatalf("level-2 base = %d", got)
	}
}

func TestBitRevCounterCoversAllLeaves(t *testing.T) {
	c := NewBitRevCounter(4)
	seen := make(map[uint64]bool)
	for i := 0; i < 16; i++ {
		seen[c.Next()] = true
	}
	if len(seen) != 16 {
		t.Fatalf("counter covered %d/16 leaves", len(seen))
	}
	// Sequence must alternate between far-apart subtrees (bit reversal).
	c2 := NewBitRevCounter(4)
	a, b := c2.Next(), c2.Next()
	if a != 0 || b != 8 {
		t.Fatalf("first two eviction leaves = %d,%d, want 0,8", a, b)
	}
}

// readSlot is ReadSlot on node's bucket at node's level.
func readSlot(st *Store, node uint64, want BlockID) (int, bool) {
	return st.ReadSlot(st.Bucket(node), st.g.NodeLevel(node), want)
}

func TestStoreReadSlotRealAndDummy(t *testing.T) {
	g := Uniform(64, 4, 5, 0, 1<<40)
	st := NewStore(g, rng.New(1))
	st.WriteBucket(3, []BlockID{42})
	slot, ok := readSlot(st, 3, 42)
	if !ok {
		t.Fatalf("real read of block 42 missed it")
	}
	if slot < 0 || slot >= 9 {
		t.Fatalf("slot %d out of range", slot)
	}
	if st.Bucket(3).Contains(42) {
		t.Fatal("block must be removed after real read")
	}
	// Same block again: dummy.
	_, ok = readSlot(st, 3, 42)
	if ok {
		t.Fatal("second read must be a dummy")
	}
	if st.Bucket(3).accessed != 2 {
		t.Fatalf("accessed = %d, want 2", st.Bucket(3).accessed)
	}
}

func TestStoreSlotsNeverRepeatBeforeReset(t *testing.T) {
	g := Uniform(64, 4, 5, 0, 1<<40)
	st := NewStore(g, rng.New(7))
	seen := make(map[int]bool)
	for i := 0; i < 9; i++ { // Z+S = 9 slots
		slot, _ := readSlot(st, 5, Dummy-1)
		if seen[slot] {
			t.Fatalf("slot %d consumed twice before reset", slot)
		}
		seen[slot] = true
	}
}

func TestStoreResetRestoresSlots(t *testing.T) {
	g := Uniform(64, 4, 5, 0, 1<<40)
	st := NewStore(g, rng.New(7))
	for i := 0; i < 5; i++ {
		readSlot(st, 2, Dummy-1)
	}
	if !st.NeedsReset(st.Bucket(2), g.NodeLevel(2), 0) {
		t.Fatal("bucket must need reset after S=5 touches")
	}
	pulled := st.ResetPull(2)
	if len(pulled) != 0 {
		t.Fatalf("empty bucket pulled %d blocks", len(pulled))
	}
	if st.Bucket(2).accessed != 0 {
		t.Fatal("reset must clear accessed count")
	}
	for i := 0; i < 9; i++ {
		readSlot(st, 2, Dummy-1) // must not panic: all slots fresh again
	}
}

func TestStoreResetPullReturnsBlocks(t *testing.T) {
	g := Uniform(64, 4, 5, 0, 1<<40)
	st := NewStore(g, rng.New(7))
	st.WriteBucket(4, []BlockID{1, 2})
	pulled := st.ResetPull(4)
	if len(pulled) != 2 || pulled[0] != 1 || pulled[1] != 2 {
		t.Fatalf("pulled %v, want [1 2]", pulled)
	}
	if st.Occupancy(4) != 0 {
		t.Fatal("bucket must be empty after pull")
	}
}

func TestWriteBucketOverflowPanics(t *testing.T) {
	g := Uniform(64, 2, 3, 0, 1<<40)
	st := NewStore(g, rng.New(7))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Z overflow")
		}
	}()
	st.WriteBucket(0, []BlockID{1, 2, 3})
}

func TestTreeTopSizing(t *testing.T) {
	g := Uniform(1<<20, 4, 5, 0, 1<<40) // depth 18
	tt := NewTreeTop(g, 256<<10)
	if tt.Levels() == 0 {
		t.Fatal("256KB must cache at least the top levels")
	}
	if tt.Levels() > g.Depth {
		t.Fatal("cannot cache more levels than the tree has")
	}
	if !tt.Cached(0) {
		t.Fatal("root must be cached")
	}
	if tt.Cached(tt.Levels()) {
		t.Fatal("first uncached level reported cached")
	}
	// Capacity check: levels 0..K-1 must fit, K more levels must not.
	var used uint64
	for l := 0; l < tt.Levels(); l++ {
		used += (uint64(1) << l) * uint64(g.Levels[l].Slots()+1) * BlockBytes
	}
	if used > 256<<10 {
		t.Fatalf("cached levels use %d bytes > capacity", used)
	}
}

func TestLazyMaterialization(t *testing.T) {
	g := Uniform(1<<28, 16, 27, 0, 1<<40) // full-scale 16 GB space
	st := NewStore(g, rng.New(1))
	if st.Materialized() != 0 {
		t.Fatal("fresh store must have no buckets")
	}
	readSlot(st, 12345, Dummy-1)
	readSlot(st, 99999, Dummy-1)
	if st.Materialized() != 2 {
		t.Fatalf("materialized = %d, want 2", st.Materialized())
	}
}

// Property: for any leaf, consecutive path nodes are parent/child in heap
// numbering and levels ascend 0..Depth.
func TestPathStructureProperty(t *testing.T) {
	g := Uniform(1<<16, 4, 5, 0, 1<<40)
	f := func(rawLeaf uint32) bool {
		leaf := uint64(rawLeaf) % g.NumLeaves()
		path := g.PathNodes(nil, leaf)
		if path[0] != 0 {
			return false
		}
		for i := 1; i < len(path); i++ {
			parent := (path[i] - 1) / 2
			if parent != path[i-1] {
				return false
			}
		}
		return path[len(path)-1] == (uint64(1)<<g.Depth)-1+leaf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadSlot never returns ok for an absent block and always returns
// ok for a present one (immediately after WriteBucket).
func TestReadSlotPresenceProperty(t *testing.T) {
	g := Uniform(1<<12, 4, 5, 0, 1<<40)
	f := func(seed uint64, nodeRaw uint16, present bool) bool {
		node := uint64(nodeRaw) % g.NumNodes()
		st := NewStore(g, rng.New(seed))
		id := BlockID(7)
		if present {
			st.WriteBucket(node, []BlockID{id})
		}
		_, ok := readSlot(st, node, id)
		return ok == present
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
