package otree

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"palermo/internal/codec"
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

// FuzzSelectFree: for arbitrary bitset words, 1..MaxSlots slots and any k
// below the free count, the branch-free select returns the scan's offset —
// from the one- or two-word slice the test above builds and from the
// two-word form a bucket always passes.
func FuzzSelectFree(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(43), uint8(0))
	f.Add(^uint64(0)>>1, uint64(0), uint8(88), uint8(5))
	f.Add(^uint64(0), ^uint64(0)>>1, uint8(128), uint8(0))
	f.Add(uint64(0x5555555555555555), uint64(0xaaaaaaaaaaaaaaaa), uint8(100), uint8(40))
	f.Fuzz(func(t *testing.T, w0, w1 uint64, rawSlots, rawK uint8) {
		slots := 1 + int(rawSlots)%MaxSlots
		used := []uint64{w0, w1}
		free := 0
		for off := 0; off < slots; off++ {
			if used[off/64]&(1<<(off%64)) == 0 {
				free++
			}
		}
		if free == 0 {
			return
		}
		k := int(rawK) % free
		want := scanFree(used, slots, k)
		if got := selectFree(used, slots, k); got != want {
			t.Fatalf("slots=%d used=%x k=%d: select=%d scan=%d", slots, used, k, got, want)
		}
		if got := selectFree(used[:(slots+63)/64], slots, k); got != want {
			t.Fatalf("slots=%d used=%x k=%d: select over %d words=%d scan=%d", slots, used, k, (slots+63)/64, got, want)
		}
	})
}

// TestBucketSize: a bucket with its inline bitset is no larger than the
// three-slice bucket it replaced (56 bytes), and a block it stores takes 4
// bytes, its id (the value lives by id outside the tree: Values); every
// materialized node costs one bucket and every stored block one id, so
// growth shows in the serving heap.
func TestBucketSize(t *testing.T) {
	if n := unsafe.Sizeof(Bucket{}); n > 56 {
		t.Fatalf("Bucket is %d bytes, want at most 56", n)
	}
	var b Bucket
	if n := unsafe.Sizeof(b.ids[0]); n != 4 {
		t.Fatalf("a stored block is %d bytes, want 4", n)
	}
}

// TestBucketCapacityAtMostZ: however a bucket's block count rises and
// falls, its storage never holds room for more than its level's Z blocks.
func TestBucketCapacityAtMostZ(t *testing.T) {
	for _, g := range []Geometry{UniformWide(1<<10, 4, 5, 1, 0, 0), UniformWide(1<<10, 16, 27, 1, 0, 0)} {
		s := NewStore(g, rng.New(7))
		driveStore(s, testVals{})
		s.index.Range(func(node uint64, ref uint32) {
			b := s.at(ref)
			if z := g.Levels[g.NodeLevel(node)].Z; cap(b.ids) > z {
				t.Fatalf("Z=%d: bucket %d has room for %d blocks", z, node, cap(b.ids))
			}
		})
	}
}

// TestBucketFilterTracksBlocks: after every kind of store mutation each
// bucket's id filter is the one its blocks give, and a block whose filter
// bit it shares with a removed one is still found.
func TestBucketFilterTracksBlocks(t *testing.T) {
	s := NewStore(UniformWide(1<<10, 4, 5, 1, 0, 0), rng.New(7))
	check := func(when string) {
		t.Helper()
		s.index.Range(func(node uint64, ref uint32) {
			b := s.at(ref)
			want := b.filter
			b.refilter()
			if b.filter != want {
				t.Fatalf("%s: bucket %d filter %x, its blocks give %x", when, node, want, b.filter)
			}
		})
	}
	vals := testVals{}
	st := driveStore(s, vals)
	check("driven")
	loadStore(t, s, st, testVals{})
	check("restored")
	s.WriteBucket(3, []BlockID{5, 5 + 64, 6})
	readSlot(s, 3, 5)
	if !s.Bucket(3).Contains(5+64) || s.Bucket(3).Contains(5) {
		t.Fatal("removing block 5 lost block 69, which shares its filter bit")
	}
	check("after a colliding removal")
}

// testVals is a map's Values.
type testVals map[BlockID]uint64

func (v testVals) Val(id BlockID) uint64         { return v[id] }
func (v testVals) SetVal(id BlockID, val uint64) { v[id] = val }

// driveStore runs a fixed operation sequence touching every kind of store
// mutation, keeping the written blocks' values in vals, and returns the
// store's checkpoint encoding. The resets write back between one and Z
// blocks, in a count that cycles, so buckets both grow and shrink; the
// block ids stay below the node count.
func driveStore(s *Store, vals testVals) []byte {
	g := s.Geometry()
	var blocks []BlockID
	resets := 0
	for leaf := uint64(0); leaf < g.NumLeaves(); leaf += 3 {
		for l := 0; l <= g.Depth; l++ {
			node := g.NodeAt(leaf, l)
			b := s.Bucket(node)
			if s.NeedsReset(b, l, 1) {
				s.ResetPull(node)
				resets++
				blocks = blocks[:0]
				for k := range 1 + resets%g.Levels[l].Z {
					id := (node + uint64(k)*(g.NumNodes()/uint64(g.Levels[l].Z))) % g.NumNodes()
					blocks = append(blocks, BlockID(id))
					vals.SetVal(BlockID(id), leaf<<40|uint64(k))
				}
				s.WriteBucket(node, blocks)
			}
			s.ReadSlot(b, l, BlockID(node))
		}
	}
	return s.AppendState(nil, vals)
}

// loadStore restores s from a driveStore encoding, whose block ids are node
// numbers, into vals, and requires LoadState to consume all of it.
func loadStore(t *testing.T, s *Store, st []byte, vals testVals) {
	t.Helper()
	r := codec.NewReader(st)
	if err := s.LoadState(r, s.g.NumNodes(), vals); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after LoadState", r.Len())
	}
}

// TestStoreRepresentationParity drives one store over the direct-indexed
// table and one over the sparse (map) table paged.New picks for key spaces
// beyond paged.DirectKeys, and asserts their checkpoint encodings are
// identical and round-trip through LoadState on both.
func TestStoreRepresentationParity(t *testing.T) {
	g := UniformWide(1<<10, 4, 5, 1, 0, 0)
	direct := NewStore(g, rng.New(7))
	sparse := NewStore(g, rng.New(7))
	sparse.index = paged.New[uint32](paged.DirectKeys + 1)

	sd, ss := driveStore(direct, testVals{}), driveStore(sparse, testVals{})
	if !bytes.Equal(sd, ss) {
		t.Fatalf("checkpoint encoding diverged between direct and sparse bucket tables: %d vs %d bytes", len(sd), len(ss))
	}
	if n := int(binary.LittleEndian.Uint32(sd)); direct.Materialized() != sparse.Materialized() || direct.Materialized() != n {
		t.Fatalf("Materialized = %d / %d, the encoding has %d buckets", direct.Materialized(), sparse.Materialized(), n)
	}
	for _, s := range []*Store{NewStore(g, rng.New(7)), sparse} {
		vals := testVals{}
		loadStore(t, s, sd, vals)
		if got := s.AppendState(nil, vals); !bytes.Equal(got, sd) {
			t.Fatalf("AppendState/LoadState round trip diverged")
		}
	}
}

// TestBucketPointerStable: a *Bucket stays valid while later buckets
// materialize (the slab grows by chunks, never by moving).
func TestBucketPointerStable(t *testing.T) {
	g := UniformWide(1<<12, 4, 5, 1, 0, 0)
	s := NewStore(g, rng.New(1))
	first := s.Bucket(0)
	s.WriteBucket(0, []BlockID{9})
	for n := uint64(1); n < g.NumNodes(); n++ {
		s.Bucket(n)
	}
	if s.Bucket(0) != first || s.Occupancy(0) != 1 {
		t.Fatalf("bucket 0 moved while the slab grew")
	}
}
