package stash

import (
	"testing"
	"testing/quick"

	"palermo/internal/otree"
)

func TestPutGetRemove(t *testing.T) {
	s := New(1 << 20)
	s.Put(Entry{ID: 1, Leaf: 5, Val: 100})
	s.Put(Entry{ID: 2, Leaf: 6, Val: 200})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	e, ok := s.Get(1)
	if !ok || e.Val != 100 || e.Leaf != 5 {
		t.Fatalf("get(1) = %+v ok=%v", e, ok)
	}
	if !s.Remove(1) || s.Remove(1) {
		t.Fatal("remove semantics wrong")
	}
	if s.Len() != 1 || s.Contains(1) {
		t.Fatal("stash state wrong after remove")
	}
}

func TestPutReplaces(t *testing.T) {
	s := New(1 << 20)
	s.Put(Entry{ID: 1, Leaf: 5, Val: 100})
	s.Put(Entry{ID: 1, Leaf: 9, Val: 300})
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
	e, _ := s.Get(1)
	if e.Val != 300 || e.Leaf != 9 {
		t.Fatalf("replace failed: %+v", e)
	}
}

func TestPutDummyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1 << 20).Put(Entry{ID: otree.Dummy})
}

func TestMaxSeen(t *testing.T) {
	s := New(1 << 20)
	for i := otree.BlockID(0); i < 10; i++ {
		s.Put(Entry{ID: i})
	}
	for i := otree.BlockID(0); i < 8; i++ {
		s.Remove(i)
	}
	if s.MaxSeen() != 10 || s.Len() != 2 {
		t.Fatalf("max=%d len=%d", s.MaxSeen(), s.Len())
	}
	s.ResetPeak()
	if s.MaxSeen() != 2 {
		t.Fatalf("max after reset = %d", s.MaxSeen())
	}
}

func TestRemap(t *testing.T) {
	s := New(1 << 20)
	s.Put(Entry{ID: 4, Leaf: 1})
	s.Remap(4, 77)
	e, _ := s.Get(4)
	if e.Leaf != 77 {
		t.Fatalf("leaf = %d", e.Leaf)
	}
}

func TestRemapAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1<<20).Remap(1, 2)
}

func TestEvictIntoPathEligibility(t *testing.T) {
	g := otree.Uniform(64, 4, 5, 0, 1<<40) // depth 4
	s := New(1 << 20)
	// Leaf 5 path at level 2 covers leaves sharing top-2 bits: 4..7.
	s.Put(Entry{ID: 1, Leaf: 4}) // eligible at level 2
	s.Put(Entry{ID: 2, Leaf: 7}) // eligible at level 2
	s.Put(Entry{ID: 3, Leaf: 8}) // not eligible
	s.Put(Entry{ID: 4, Leaf: 5}) // eligible
	out := s.EvictIntoNode(g, g.NodeAt(5, 2), 4, nil)
	if len(out) != 3 {
		t.Fatalf("evicted %d blocks, want 3", len(out))
	}
	if s.Contains(1) || s.Contains(2) || s.Contains(4) || !s.Contains(3) {
		t.Fatal("wrong blocks evicted")
	}
}

func TestEvictIntoRespectsMax(t *testing.T) {
	g := otree.Uniform(64, 4, 5, 0, 1<<40)
	s := New(1 << 20)
	for i := otree.BlockID(0); i < 10; i++ {
		s.Put(Entry{ID: i, Leaf: 3})
	}
	out := s.EvictIntoNode(g, g.NodeAt(3, 4), 4, nil)
	if len(out) != 4 || s.Len() != 6 {
		t.Fatalf("evicted %d, remaining %d", len(out), s.Len())
	}
}

func TestEvictIntoRootTakesAnything(t *testing.T) {
	g := otree.Uniform(64, 4, 5, 0, 1<<40)
	s := New(1 << 20)
	s.Put(Entry{ID: 1, Leaf: 0})
	s.Put(Entry{ID: 2, Leaf: 15})
	out := s.EvictIntoNode(g, g.NodeAt(7, 0), 4, nil)
	if len(out) != 2 {
		t.Fatalf("root eviction took %d, want 2 (all leaves share the root)", len(out))
	}
}

func TestEvictDeterministicOldestFirst(t *testing.T) {
	g := otree.Uniform(64, 4, 5, 0, 1<<40)
	s := New(1 << 20)
	for i := otree.BlockID(0); i < 6; i++ {
		s.Put(Entry{ID: i, Leaf: 2})
	}
	out := s.EvictIntoNode(g, g.NodeAt(2, 4), 3, nil)
	for i, e := range out {
		if e.ID != otree.BlockID(i) {
			t.Fatalf("eviction not oldest-first: %v", out)
		}
	}
}

func TestSlotReuse(t *testing.T) {
	s := New(1 << 20)
	for i := otree.BlockID(0); i < 1000; i++ {
		s.Put(Entry{ID: i, Leaf: uint64(i)})
		if i >= 1 {
			s.Remove(i - 1)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if len(s.slab) > 64 {
		t.Fatalf("slab grew to %d slots despite free-list reuse", len(s.slab))
	}
	e, ok := s.Get(999)
	if !ok || e.Leaf != 999 {
		t.Fatal("live entry lost during slot reuse")
	}
}

func TestSamples(t *testing.T) {
	s := New(1 << 20)
	s.Put(Entry{ID: 1})
	s.Sample()
	s.Put(Entry{ID: 2})
	s.Sample()
	got := s.Samples()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("samples = %v", got)
	}
}

// Property: Len always equals the number of distinct IDs inserted minus
// removed, and ForEach visits exactly the live set.
func TestStashAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(1 << 20)
		ref := make(map[otree.BlockID]bool)
		for _, op := range ops {
			id := otree.BlockID(op % 100)
			if op%2 == 0 {
				s.Put(Entry{ID: id, Leaf: uint64(op)})
				ref[id] = true
			} else {
				s.Remove(id)
				delete(ref, id)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		seen := 0
		okAll := true
		s.ForEach(func(e Entry) {
			seen++
			if !ref[e.ID] {
				okAll = false
			}
		})
		return okAll && seen == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityOverflowTracking(t *testing.T) {
	s := New(1 << 20)
	s.SetCapacity(4)
	for i := otree.BlockID(0); i < 6; i++ {
		s.Put(Entry{ID: i})
	}
	if s.Overflows() != 2 {
		t.Fatalf("overflows = %d, want 2", s.Overflows())
	}
	// Below capacity again: no further counting.
	s.Remove(0)
	s.Remove(1)
	s.Remove(2)
	s.Put(Entry{ID: 100})
	if s.Overflows() != 2 {
		t.Fatalf("overflow counted below capacity: %d", s.Overflows())
	}
}

func TestCapacityUntrackedByDefault(t *testing.T) {
	s := New(1 << 20)
	for i := otree.BlockID(0); i < 1000; i++ {
		s.Put(Entry{ID: i})
	}
	if s.Overflows() != 0 {
		t.Fatal("untracked stash must not count overflows")
	}
}
