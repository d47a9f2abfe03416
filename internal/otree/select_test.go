package otree

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sort"
	"testing"

	"palermo/internal/paged"
	"palermo/internal/rng"
)

// scanFree is the slot selection freeSlot used before selectFree: walk the
// offsets in order, skipping consumed ones, until the k-th free one. Kept
// as the reference the popcount select must agree with.
func scanFree(used []uint64, slots, k int) int {
	for off := 0; off < slots; off++ {
		if used[off/64]&(1<<(off%64)) != 0 {
			continue
		}
		if k == 0 {
			return off
		}
		k--
	}
	panic("unreachable")
}

// TestFreeSlotSelectMatchesScan: for every bucket width 1..128, random
// consumed-slot bitsets of every density, and every valid k, the popcount
// select returns the offset the scan loop returned — so the same RNG draw
// still lands on the same DRAM address.
func TestFreeSlotSelectMatchesScan(t *testing.T) {
	r := rng.New(20260926)
	for slots := 1; slots <= 128; slots++ {
		words := (slots-1)/64 + 1
		for trial := 0; trial < 24; trial++ {
			used := make([]uint64, words)
			consumed := 0
			density := r.Uint64n(uint64(slots)) // 0 .. slots-1 consumed, so one slot stays free
			for consumed < int(density) {
				off := r.Intn(slots)
				if used[off/64]&(1<<(off%64)) == 0 {
					used[off/64] |= 1 << (off % 64)
					consumed++
				}
			}
			// Garbage beyond the bucket's width must not be selected.
			if slots%64 != 0 && trial%2 == 1 {
				used[words-1] ^= ^uint64(0) << (slots % 64) & r.Uint64()
			}
			for k := 0; k < slots-consumed; k++ {
				if got, want := selectFree(used, slots, k), scanFree(used, slots, k); got != want {
					t.Fatalf("slots=%d used=%x k=%d: select=%d scan=%d", slots, used, k, got, want)
				}
			}
		}
	}
}

// driveStore runs a fixed operation sequence touching every kind of store
// mutation and returns the exported state.
func driveStore(s *Store) []BucketState {
	g := s.Geometry()
	for leaf := uint64(0); leaf < g.NumLeaves(); leaf += 3 {
		for l := 0; l <= g.Depth; l++ {
			node := g.NodeAt(leaf, l)
			if s.NeedsReset(node, 1) {
				s.ResetPull(node)
				s.WriteBucket(node, []BlockEntry{{ID: BlockID(node), Val: leaf}})
			}
			s.ReadSlot(node, BlockID(node))
		}
	}
	return s.State()
}

// TestStoreRepresentationParity drives one store over the direct-indexed
// table and one over the sparse (map) table paged.New picks for key spaces
// beyond paged.DirectKeys, and asserts the exported State — hence every
// checkpoint — is identical, and round-trips through Restore on both.
func TestStoreRepresentationParity(t *testing.T) {
	g := UniformWide(1<<10, 4, 5, 1, 0, 0)
	direct := NewStore(g, rng.New(7))
	sparse := NewStore(g, rng.New(7))
	sparse.index = paged.New(paged.DirectKeys + 1)

	sd, ss := driveStore(direct), driveStore(sparse)
	if !reflect.DeepEqual(sd, ss) {
		t.Fatalf("State diverged between direct and sparse bucket tables: %d vs %d buckets", len(sd), len(ss))
	}
	if direct.Materialized() != sparse.Materialized() || direct.Materialized() != len(sd) {
		t.Fatalf("Materialized = %d / %d, State has %d", direct.Materialized(), sparse.Materialized(), len(sd))
	}
	for _, s := range []*Store{NewStore(g, rng.New(7)), sparse} {
		s.Restore(sd)
		if got := s.State(); !reflect.DeepEqual(got, sd) {
			t.Fatalf("State/Restore round trip diverged")
		}
	}
}

// TestBucketPointerStable: a *Bucket stays valid while later buckets
// materialize (the slab grows by chunks, never by moving).
func TestBucketPointerStable(t *testing.T) {
	g := UniformWide(1<<12, 4, 5, 1, 0, 0)
	s := NewStore(g, rng.New(1))
	first := s.Bucket(0)
	first.Blocks = append(first.Blocks, BlockEntry{ID: 9, Val: 9})
	for n := uint64(1); n < g.NumNodes(); n++ {
		s.Bucket(n)
	}
	if s.Bucket(0) != first || s.Occupancy(0) != 1 {
		t.Fatalf("bucket 0 moved while the slab grew")
	}
}

// TestStateMatchesPerBucketCopies: State carves every bucket's slices out
// of two arrays; what it returns, and the gob bytes a checkpoint makes of
// it, must be those of the export that copied each bucket on its own — on
// a store with empty, reset and occupied buckets — in a handful of
// allocations whatever the bucket count.
func TestStateMatchesPerBucketCopies(t *testing.T) {
	s := NewStore(UniformWide(1<<10, 4, 5, 1, 0, 0), rng.New(7))
	driveStore(s)
	var want []BucketState
	s.index.Range(func(node uint64, ref uint32) {
		b := s.at(ref)
		want = append(want, BucketState{
			Node:     node,
			Blocks:   append([]BlockEntry(nil), b.Blocks...),
			Used:     append([]uint64(nil), b.used...),
			Accessed: b.Accessed,
		})
	})
	sort.Slice(want, func(i, j int) bool { return want[i].Node < want[j].Node })
	got := s.State()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("State differs from the per-bucket export")
	}
	var gb, wb bytes.Buffer
	if err := gob.NewEncoder(&gb).Encode(got); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&wb).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("gob of State differs from gob of the per-bucket export")
	}
	// A carved slice must not reach its neighbour's bytes through append.
	for i := range got {
		if b := got[i].Blocks; len(b) > 0 && cap(b) != len(b) {
			t.Fatalf("bucket %d: Blocks has spare capacity %d into the shared array", got[i].Node, cap(b)-len(b))
		}
	}
	if len(got) < 100 {
		t.Fatalf("only %d buckets materialized", len(got))
	}
	if allocs := testing.AllocsPerRun(10, func() { s.State() }); allocs > 8 {
		t.Fatalf("State makes %.0f allocations for %d buckets, want a constant handful", allocs, len(got))
	}
}
