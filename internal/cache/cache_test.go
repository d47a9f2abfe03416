package cache

import (
	"testing"
	"testing/quick"

	"palermo/internal/rng"
)

func mustCache(t *testing.T, l Level) *Cache {
	t.Helper()
	c, err := NewCache(l)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHitMiss(t *testing.T) {
	c := mustCache(t, Level{Name: "t", Capacity: 4096, Ways: 4})
	if hit, _, _ := c.Access(1); hit {
		t.Fatal("cold access must miss")
	}
	if hit, _, _ := c.Access(1); !hit {
		t.Fatal("second access must hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 4 ways, 16 sets: lines 0,16,32,... share set 0.
	c := mustCache(t, Level{Name: "t", Capacity: 4096, Ways: 4})
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 16)
	}
	c.Access(0) // refresh line 0 to MRU
	_, victim, evicted := c.Access(4 * 16)
	if !evicted || victim != 16 {
		t.Fatalf("expected LRU victim 16, got %d (evicted=%v)", victim, evicted)
	}
	if !c.Contains(0) {
		t.Fatal("refreshed line must survive")
	}
}

func TestCacheInstallNoCount(t *testing.T) {
	c := mustCache(t, Level{Name: "t", Capacity: 4096, Ways: 4})
	c.Install(5)
	if c.Hits+c.Misses != 0 {
		t.Fatal("Install must not count as an access")
	}
	if hit, _, _ := c.Access(5); !hit {
		t.Fatal("installed line must hit")
	}
}

func TestCacheInvalidConfig(t *testing.T) {
	if _, err := NewCache(Level{Capacity: 0, Ways: 4}); err == nil {
		t.Fatal("zero capacity must error")
	}
	if _, err := NewCache(Level{Capacity: 64, Ways: 4}); err == nil {
		t.Fatal("fewer lines than ways must error")
	}
}

func TestHierarchyInclusiveFill(t *testing.T) {
	h, err := NewHierarchy(Table3Hierarchy())
	if err != nil {
		t.Fatal(err)
	}
	if miss := h.Access(42); !miss {
		t.Fatal("cold reference must be an LLC miss")
	}
	for _, c := range h.Levels() {
		if !c.Contains(42) {
			t.Fatalf("%s missing line after fill", c.Level().Name)
		}
	}
	if miss := h.Access(42); miss {
		t.Fatal("hot reference must hit")
	}
	if h.Refs != 2 || h.LLCMisses != 1 {
		t.Fatalf("refs=%d misses=%d", h.Refs, h.LLCMisses)
	}
}

func TestHierarchyL3HitAfterL1Eviction(t *testing.T) {
	h, _ := NewHierarchy(Table3Hierarchy())
	h.Access(0)
	// Blow the L1 set of line 0 with conflicting lines (L1: 128 sets).
	for i := uint64(1); i <= 8; i++ {
		h.Access(i * 128)
	}
	before := h.LLCMisses
	if miss := h.Access(0); miss {
		t.Fatal("line must still hit in an outer level")
	}
	if h.LLCMisses != before {
		t.Fatal("outer-level hit must not count an LLC miss")
	}
}

func TestHierarchyMissRateStreaming(t *testing.T) {
	h, _ := NewHierarchy(Table3Hierarchy())
	// A working set far beyond 8 MB: every reference distinct -> all miss.
	for i := uint64(0); i < 300000; i++ {
		h.Access(i * 7)
	}
	if mr := h.MissRate(); mr < 0.99 {
		t.Fatalf("streaming miss rate = %f, want ~1", mr)
	}
	// A tiny working set: almost everything hits after warmup.
	h2, _ := NewHierarchy(Table3Hierarchy())
	r := rng.New(1)
	for i := 0; i < 100000; i++ {
		h2.Access(r.Uint64n(1000))
	}
	if mr := h2.MissRate(); mr > 0.05 {
		t.Fatalf("resident working-set miss rate = %f, want ~0", mr)
	}
}

// Property: Contains agrees with Access-hit, and occupancy never exceeds
// ways per set.
func TestCacheConsistencyProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c, _ := NewCache(Level{Name: "t", Capacity: 2048, Ways: 2})
		for _, l := range lines {
			line := uint64(l % 512)
			want := c.Contains(line)
			hit, _, _ := c.Access(line)
			if hit != want {
				return false
			}
		}
		for _, s := range c.sets {
			if len(s.tags) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h, _ := NewHierarchy(Table3Hierarchy())
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		h.Access(r.Uint64n(1 << 20))
	}
}
