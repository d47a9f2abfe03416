package posmap

import (
	"bytes"
	"testing"
	"testing/quick"

	"palermo/internal/rng"
)

func newHier() *Hierarchy {
	h := New(1<<16, 2, rng.New(42))
	for l := 0; l < h.Levels(); l++ {
		h.Attach(l, 1<<10)
	}
	return h
}

func TestLevelSizing(t *testing.T) {
	h := New(1<<16, 2, rng.New(1))
	if h.Levels() != 3 {
		t.Fatalf("levels = %d", h.Levels())
	}
	if h.Blocks(0) != 1<<16 || h.Blocks(1) != 1<<12 || h.Blocks(2) != 1<<8 {
		t.Fatalf("blocks = %d %d %d", h.Blocks(0), h.Blocks(1), h.Blocks(2))
	}
}

func TestLevelSizingRoundsUp(t *testing.T) {
	h := New(17, 1, rng.New(1))
	if h.Blocks(1) != 2 {
		t.Fatalf("blocks(1) = %d, want 2 (ceil 17/16)", h.Blocks(1))
	}
}

func TestIndex(t *testing.T) {
	h := newHier()
	if h.Index(0, 12345) != 12345 {
		t.Fatal("level-0 index must be identity")
	}
	if h.Index(1, 12345) != 12345/16 {
		t.Fatalf("level-1 index = %d", h.Index(1, 12345))
	}
	if h.Index(2, 12345) != 12345/256 {
		t.Fatalf("level-2 index = %d", h.Index(2, 12345))
	}
}

// TestLeafRemapIsLeafThenRemap: on a direct and a sparse (beyond
// paged.DirectKeys) level, LeafRemap returns what Leaf returned and leaves
// the assignments and the generator where Leaf then Remap left them,
// first touches included.
func TestLeafRemapIsLeafThenRemap(t *testing.T) {
	for _, blocks := range []uint64{1 << 12, 1<<20 + 1} {
		a, b := New(blocks, 0, rng.New(9)), New(blocks, 0, rng.New(9))
		a.Attach(0, 1<<10)
		b.Attach(0, 1<<10)
		pick := rng.New(4)
		for i := 0; i < 20000; i++ {
			idx := pick.Uint64n(blocks) % 3000 // revisit blocks often
			want := a.Leaf(0, idx)
			a.Remap(0, idx)
			if got := b.LeafRemap(0, idx); got != want {
				t.Fatalf("blocks=%d step %d idx %d: LeafRemap=%d, Leaf=%d", blocks, i, idx, got, want)
			}
		}
		if a.r.State() != b.r.State() || !bytes.Equal(a.AppendState(nil), b.AppendState(nil)) {
			t.Fatalf("blocks=%d: LeafRemap left a different generator or assignment", blocks)
		}
	}
}

func TestLeafStableUntilRemap(t *testing.T) {
	h := newHier()
	a := h.Leaf(0, 100)
	b := h.Leaf(0, 100)
	if a != b {
		t.Fatal("Leaf must be stable without Remap")
	}
	h.Remap(0, 100)
	c := h.Leaf(0, 100)
	// Remap draws uniformly; equality is possible but the mapping must be
	// whatever Remap returned.
	if c >= 1<<10 {
		t.Fatalf("leaf %d out of range", c)
	}
}

func TestRemapReturnsStoredValue(t *testing.T) {
	h := newHier()
	leaf := h.Remap(1, 5)
	if got := h.Leaf(1, 5); got != leaf {
		t.Fatalf("Leaf = %d, want remapped %d", got, leaf)
	}
}

func TestSetLeaf(t *testing.T) {
	h := newHier()
	h.SetLeaf(0, 7, 123)
	if h.Leaf(0, 7) != 123 {
		t.Fatal("SetLeaf not honored")
	}
}

func TestLeafRangeProperty(t *testing.T) {
	h := newHier()
	f := func(idx uint16) bool {
		return h.Leaf(0, uint64(idx)) < 1<<10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeafUniformity(t *testing.T) {
	h := New(1<<20, 0, rng.New(9))
	h.Attach(0, 16)
	counts := make([]int, 16)
	for i := uint64(0); i < 160000; i++ {
		counts[h.Leaf(0, i)]++
	}
	for leaf, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("leaf %d count %d deviates >10%% from uniform", leaf, c)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	h := newHier()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Leaf(2, 1<<20)
}

func TestUnattachedPanics(t *testing.T) {
	h := New(1024, 1, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Leaf(0, 1)
}
