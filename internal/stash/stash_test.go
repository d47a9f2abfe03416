package stash

import (
	"testing"
	"testing/quick"

	"palermo/internal/codec"
	"palermo/internal/otree"
	"palermo/internal/rng"
)

func TestPutGetRemove(t *testing.T) {
	s := New()
	s.Put(Entry{ID: 1, Leaf: 5})
	s.Put(Entry{ID: 2, Leaf: 6})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	e, ok := s.Get(1)
	if !ok || e.ID != 1 || e.Leaf != 5 {
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
	s := New()
	s.Put(Entry{ID: 1, Leaf: 5})
	s.Put(Entry{ID: 1, Leaf: 9})
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
	e, _ := s.Get(1)
	if e.Leaf != 9 {
		t.Fatalf("replace failed: %+v", e)
	}
}

func TestPutDummyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Put(Entry{ID: otree.Dummy})
}

func TestMaxSeen(t *testing.T) {
	s := New()
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
	s := New()
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
	New().Remap(1, 2)
}

func TestEvictIntoPathEligibility(t *testing.T) {
	g := otree.Uniform(64, 4, 5, 0, 1<<40) // depth 4
	s := New()
	// Leaf 5 path at level 2 covers leaves sharing top-2 bits: 4..7.
	s.Put(Entry{ID: 1, Leaf: 4}) // eligible at level 2
	s.Put(Entry{ID: 2, Leaf: 7}) // eligible at level 2
	s.Put(Entry{ID: 3, Leaf: 8}) // not eligible
	s.Put(Entry{ID: 4, Leaf: 5}) // eligible
	out := s.EvictIntoNode(&g, g.NodeAt(5, 2), 4, nil)
	if len(out) != 3 {
		t.Fatalf("evicted %d blocks, want 3", len(out))
	}
	if s.Contains(1) || s.Contains(2) || s.Contains(4) || !s.Contains(3) {
		t.Fatal("wrong blocks evicted")
	}
}

func TestEvictIntoRespectsMax(t *testing.T) {
	g := otree.Uniform(64, 4, 5, 0, 1<<40)
	s := New()
	for i := otree.BlockID(0); i < 10; i++ {
		s.Put(Entry{ID: i, Leaf: 3})
	}
	out := s.EvictIntoNode(&g, g.NodeAt(3, 4), 4, nil)
	if len(out) != 4 || s.Len() != 6 {
		t.Fatalf("evicted %d, remaining %d", len(out), s.Len())
	}
}

func TestEvictIntoRootTakesAnything(t *testing.T) {
	g := otree.Uniform(64, 4, 5, 0, 1<<40)
	s := New()
	s.Put(Entry{ID: 1, Leaf: 0})
	s.Put(Entry{ID: 2, Leaf: 15})
	out := s.EvictIntoNode(&g, g.NodeAt(7, 0), 4, nil)
	if len(out) != 2 {
		t.Fatalf("root eviction took %d, want 2 (all leaves share the root)", len(out))
	}
}

func TestEvictDeterministicOldestFirst(t *testing.T) {
	g := otree.Uniform(64, 4, 5, 0, 1<<40)
	s := New()
	for i := otree.BlockID(0); i < 6; i++ {
		s.Put(Entry{ID: i, Leaf: 2})
	}
	out := s.EvictIntoNode(&g, g.NodeAt(2, 4), 3, nil)
	for i, id := range out {
		if id != otree.BlockID(i) {
			t.Fatalf("eviction not oldest-first: %v", out)
		}
	}
}

func TestSlotReuse(t *testing.T) {
	s := New()
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
	s := New()
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
		s := New()
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
	s := New()
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
	s := New()
	for i := otree.BlockID(0); i < 1000; i++ {
		s.Put(Entry{ID: i})
	}
	if s.Overflows() != 0 {
		t.Fatal("untracked stash must not count overflows")
	}
}

// noVals is the otree.Values of blocks that carry none.
type noVals struct{}

func (noVals) Val(otree.BlockID) uint64     { return 0 }
func (noVals) SetVal(otree.BlockID, uint64) {}

// TestStashIndexMatchesMap drives a stash through a seeded mix of inserts,
// in-place replacements, removals (most of them inside clusters, where
// deletion shifts later cells back), growth to several hundred entries and
// back, evictions, reset and LoadState, against a Go map and an
// insertion-order list. After every step the stash must agree with the
// model on every probed id, on Len and on ForEach's order, and the index
// must hold exactly the live entries, at most half full, each reachable
// from its home cell without crossing an empty one.
func TestStashIndexMatchesMap(t *testing.T) {
	r := rng.New(5)
	s := New()
	ref := map[otree.BlockID]Entry{}
	var order []otree.BlockID
	remove := func(id otree.BlockID) {
		delete(ref, id)
		for i, v := range order {
			if v == id {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
	}
	g := otree.Uniform(1<<12, 4, 5, 0, 0)
	check := func(step int, what string) {
		t.Helper()
		if s.Len() != len(ref) || s.index.n != len(ref) {
			t.Fatalf("step %d (%s): Len %d, index holds %d, model %d", step, what, s.Len(), s.index.n, len(ref))
		}
		if n := len(s.index.cells); n&(n-1) != 0 || 2*s.index.n > n {
			t.Fatalf("step %d (%s): %d entries in %d cells", step, what, s.index.n, n)
		}
		held := 0
		mask := len(s.index.cells) - 1
		for c, cl := range s.index.cells {
			if cl.ref == 0 {
				continue
			}
			held++
			for p := s.index.home(cl.id); p != c; p = (p + 1) & mask {
				if s.index.cells[p].ref == 0 {
					t.Fatalf("step %d (%s): block %d in cell %d is cut off from its home by empty cell %d", step, what, cl.id, c, p)
				}
			}
			if e := s.slab[cl.ref-1].e; e.ID != cl.id {
				t.Fatalf("step %d (%s): index sends block %d to a slot holding %d", step, what, cl.id, e.ID)
			}
		}
		if held != len(ref) {
			t.Fatalf("step %d (%s): %d cells in use for %d blocks", step, what, held, len(ref))
		}
		i := 0
		s.ForEach(func(e Entry) {
			if i >= len(order) || e != ref[order[i]] {
				t.Fatalf("step %d (%s): ForEach entry %d is %+v, want block %d of %d", step, what, i, e, order[min(i, len(order)-1)], len(order))
			}
			i++
		})
		for range 8 {
			id := otree.BlockID(r.Uint64n(4096))
			got, ok := s.Get(id)
			want, in := ref[id]
			if ok != in || got != want || s.Contains(id) != in {
				t.Fatalf("step %d (%s): Get(%d) = %+v, %v; model %+v, %v", step, what, id, got, ok, want, in)
			}
		}
	}
	peak := 0
	for step := range 30000 {
		// Puts outweigh removals for 3000 steps and then the other way
		// round, so the index grows past its first sizes and empties
		// again.
		puts := uint64(25)
		if step/3000%2 == 0 {
			puts = 70
		}
		id := otree.BlockID(r.Uint64n(4096))
		var what string
		switch op := r.Uint64n(100); {
		case op < 1:
			what = "evict"
			leaf := r.Uint64n(g.NumLeaves())
			for _, id := range s.EvictIntoNode(&g, g.NodeAt(leaf, g.Depth-1), 4, nil) {
				remove(id)
			}
		case op < 2:
			what = "load"
			st := s.AppendState(nil, noVals{})
			if step%2 == 0 {
				s = New()
			}
			if err := s.LoadState(codec.NewReader(st), 4096, g.NumLeaves(), noVals{}); err != nil {
				t.Fatal(err)
			}
		case op < 2+puts:
			e := Entry{ID: id, Leaf: r.Uint64n(g.NumLeaves())}
			what = "put"
			if _, in := ref[id]; !in {
				order = append(order, id)
			} else {
				what = "replace"
			}
			s.Put(e)
			ref[id] = e
		default:
			what = "remove"
			if len(order) > 0 && op%4 != 0 {
				id = order[r.Uint64n(uint64(len(order)))]
			}
			_, in := ref[id]
			if s.Remove(id) != in {
				t.Fatalf("step %d: Remove(%d) disagrees with the model (%v)", step, id, in)
			}
			remove(id)
		}
		check(step, what)
		peak = max(peak, len(s.index.cells))
		if step == 20000 {
			s.reset()
			clear(ref)
			order = order[:0]
			check(step, "reset")
		}
	}
	if peak < 1024 {
		t.Fatalf("the index never grew past %d cells", peak)
	}
}

// TestEvictPathMatchesPerBucket: on random stashes, pulled sets, capacities
// and per-level bucket sizes, EvictPath's one sweep selects what a Put of
// every pulled block followed by EvictIntoNode on each bucket of the path,
// deepest first, selects — bucket for bucket, in order — and leaves the
// same stash: entries, insertion order, MaxSeen and Overflows (compared
// through AppendState's bytes).
func TestEvictPathMatchesPerBucket(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 400; trial++ {
		g := otree.Uniform(1<<(4+r.Uint64n(8)), 4, 5, 0, 0)
		g.Levels = append([]otree.LevelSpec(nil), g.Levels...)
		for l := range g.Levels {
			g.Levels[l].Z = 1 + int(r.Uint64n(6))
		}
		leaves := uint64(1) << g.Depth
		per, sweep := New(), New()
		if r.Uint64n(2) == 0 {
			c := int(r.Uint64n(200))
			per.SetCapacity(c)
			sweep.SetCapacity(c)
		}
		var ids []otree.BlockID
		next := otree.BlockID(1)
		for range r.Uint64n(300) {
			e := Entry{ID: next, Leaf: r.Uint64n(leaves)}
			next++
			per.Put(e)
			sweep.Put(e)
			ids = append(ids, e.ID)
		}
		for _, id := range ids { // some removals, so slots are reused
			if r.Uint64n(4) == 0 {
				per.Remove(id)
				sweep.Remove(id)
			}
		}
		pulled := make([]Entry, r.Uint64n(uint64(5*(g.Depth+1))))
		for i := range pulled {
			pulled[i] = Entry{ID: next, Leaf: r.Uint64n(leaves)}
			next++
		}
		leaf := r.Uint64n(leaves)

		for _, e := range pulled {
			per.Put(e)
		}
		want := make([][]otree.BlockID, g.Depth+1)
		for l := g.Depth; l >= 0; l-- {
			want[l] = per.EvictIntoNode(&g, g.NodeAt(leaf, l), g.Levels[l].Z, nil)
		}
		got := make([][]otree.BlockID, g.Depth+1)
		sweep.EvictPath(&g, leaf, pulled, got)

		for l := range want {
			if len(got[l]) != len(want[l]) {
				t.Fatalf("trial %d level %d: sweep selected %v, per-bucket scans %v", trial, l, got[l], want[l])
			}
			for i := range want[l] {
				if got[l][i] != want[l][i] {
					t.Fatalf("trial %d level %d: sweep selected %v, per-bucket scans %v", trial, l, got[l], want[l])
				}
			}
		}
		if a, b := per.AppendState(nil, noVals{}), sweep.AppendState(nil, noVals{}); string(a) != string(b) {
			t.Fatalf("trial %d: the stashes differ after the eviction (Len %d/%d, MaxSeen %d/%d, Overflows %d/%d)",
				trial, per.Len(), sweep.Len(), per.MaxSeen(), sweep.MaxSeen(), per.Overflows(), sweep.Overflows())
		}
		for id := otree.BlockID(1); id < next; id++ {
			if per.Contains(id) != sweep.Contains(id) {
				t.Fatalf("trial %d: block %d stashed %v by the scans, %v by the sweep", trial, id, per.Contains(id), sweep.Contains(id))
			}
		}
	}
}
