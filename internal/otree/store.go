package otree

import (
	"fmt"
	"math/bits"
	"sort"

	"palermo/internal/paged"
	"palermo/internal/rng"
)

// BlockEntry is a real block resident in a bucket.
type BlockEntry struct {
	ID  BlockID
	Val uint64 // payload carried through the simulator for correctness checks
}

// Bucket is the functional state of one tree node. A zero-value bucket is a
// freshly reset, empty bucket (all slots valid dummies). Slot permutation is
// tracked as a bitset of consumed slot offsets: RingORAM invalidates the
// touched slot on every access and never re-reads it before a reset.
type Bucket struct {
	Blocks   []BlockEntry // valid real blocks currently stored; capacity survives resets
	used     []uint64     // bitset of slot offsets consumed since the last reset
	Accessed int          // touches since the last reset
}

func (b *Bucket) setUsed(off int) {
	for len(b.used) <= off/64 {
		b.used = append(b.used, 0)
	}
	b.used[off/64] |= 1 << (off % 64)
}

func (b *Bucket) clearUsed() {
	for i := range b.used {
		b.used[i] = 0
	}
	b.Accessed = 0
}

// Buckets live in fixed-size chunks so a *Bucket stays valid while later
// buckets materialize.
const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
)

// Store is the bucket container of one ORAM tree. Buckets are created on
// first touch, so full-scale (16 GB-space) geometries run in memory
// proportional to the touched set: a paged.Table maps a node to its
// position in a slab that grows in first-touch order. The same structure
// serves the root, which every path crosses, and a leaf touched once.
type Store struct {
	g     Geometry
	index paged.Table // node -> 1 + slab position
	slab  [][]Bucket  // chunkLen buckets per chunk
	r     *rng.Rand
}

// NewStore creates an empty tree (every bucket holds only dummies).
func NewStore(g Geometry, r *rng.Rand) *Store {
	return &Store{g: g, index: paged.New(g.NumNodes()), r: r}
}

// Geometry returns the tree geometry.
func (s *Store) Geometry() Geometry { return s.g }

func (s *Store) at(ref uint32) *Bucket {
	i := ref - 1
	return &s.slab[i>>chunkBits][i&(chunkLen-1)]
}

// Bucket materializes and returns the bucket for node. The pointer stays
// valid for the life of the store (until Restore).
func (s *Store) Bucket(node uint64) *Bucket {
	if ref := s.index.Get(node); ref != 0 {
		return s.at(ref)
	}
	n := s.index.Len()
	if n>>chunkBits == len(s.slab) {
		s.slab = append(s.slab, make([]Bucket, chunkLen))
	}
	ref := uint32(n) + 1
	s.index.Set(node, ref)
	return s.at(ref)
}

// peek returns the bucket for node without materializing it.
func (s *Store) peek(node uint64) (*Bucket, bool) {
	if ref := s.index.Get(node); ref != 0 {
		return s.at(ref), true
	}
	return nil, false
}

// Materialized returns the number of buckets touched so far.
func (s *Store) Materialized() int { return s.index.Len() }

// find returns the index of id in b.Blocks, or -1.
func (b *Bucket) find(id BlockID) int {
	for i := range b.Blocks {
		if b.Blocks[i].ID == id {
			return i
		}
	}
	return -1
}

// Contains reports whether the bucket currently holds id as a valid block.
func (b *Bucket) Contains(id BlockID) bool { return b.find(id) >= 0 }

// selectFree returns the offset of the k-th (from 0) clear bit among the
// first slots bits of used: popcount skips whole words, then the k lower
// free offsets of the word are cleared one instruction each. used must
// cover slots bits and k must be below the number of clear ones.
func selectFree(used []uint64, slots, k int) int {
	for w := 0; ; w++ {
		free := ^used[w]
		if rem := slots - w*64; rem < 64 {
			free &= 1<<uint(rem) - 1
		}
		if n := bits.OnesCount64(free); k >= n {
			k -= n
			continue
		}
		for ; k > 0; k-- {
			free &= free - 1
		}
		return w*64 + bits.TrailingZeros64(free)
	}
}

// freeSlot picks a uniformly random unconsumed slot offset, modelling the
// random permutation's effect on DRAM addresses within the bucket (the
// functional model does not track the real permutation; any distinct
// offset is equivalent for timing and the permutation is re-randomized on
// reset).
func (s *Store) freeSlot(b *Bucket, slots int) int {
	free := slots - b.Accessed
	if free <= 0 {
		panic("otree: ReadSlot on exhausted bucket (protocol must reset first)")
	}
	for len(b.used) <= (slots-1)/64 {
		b.used = append(b.used, 0)
	}
	return selectFree(b.used, slots, s.r.Intn(free))
}

// ReadSlot performs RingORAM's ReadBucket: it consumes exactly one slot of
// node. If want is present in the bucket the real block is removed and
// returned with ok=true; otherwise an unused dummy is consumed. The returned
// slot offset determines the DRAM address touched.
//
// The RingORAM invariant guarantees a usable slot exists whenever
// Accessed < S at entry (the early-reshuffle rule resets before exhaustion).
func (s *Store) ReadSlot(node uint64, want BlockID) (e BlockEntry, slot int, ok bool) {
	b := s.Bucket(node)
	lvl := s.g.NodeLevel(node)
	slots := s.g.Levels[lvl].Slots()
	slot = s.freeSlot(b, slots)
	b.setUsed(slot)
	b.Accessed++
	if i := b.find(want); i >= 0 {
		e = b.Blocks[i]
		b.Blocks = append(b.Blocks[:i], b.Blocks[i+1:]...)
		return e, slot, true
	}
	return BlockEntry{ID: Dummy}, slot, false
}

// NeedsReset reports whether the node has consumed its guaranteed dummy
// budget: after S touches a further ReadSlot may find no unused dummy.
func (s *Store) NeedsReset(node uint64, margin int) bool {
	b, ok := s.peek(node)
	if !ok {
		return false
	}
	lvl := s.g.NodeLevel(node)
	return b.Accessed >= s.g.Levels[lvl].S-margin
}

// ResetPull removes and returns all valid real blocks from node, modelling
// ResetBucket's pull step (the DRAM traffic is padded to Z reads by the
// caller for obliviousness). The bucket's access state is cleared. The
// returned slice is the bucket's own storage: it is valid until the next
// WriteBucket to node, which every protocol issues only after it has moved
// the pulled blocks to the stash.
func (s *Store) ResetPull(node uint64) []BlockEntry {
	b := s.Bucket(node)
	blocks := b.Blocks
	b.Blocks = blocks[:0]
	b.clearUsed()
	return blocks
}

// WriteBucket installs a copy of blocks into node after a reset.
// len(blocks) must not exceed the level's Z.
func (s *Store) WriteBucket(node uint64, blocks []BlockEntry) {
	lvl := s.g.NodeLevel(node)
	if len(blocks) > s.g.Levels[lvl].Z {
		panic(fmt.Sprintf("otree: writing %d blocks into Z=%d bucket", len(blocks), s.g.Levels[lvl].Z))
	}
	b := s.Bucket(node)
	b.Blocks = append(b.Blocks[:0], blocks...)
	b.clearUsed()
}

// BucketState is the serializable form of one materialized bucket, used by
// durable-store checkpoints. Used mirrors the consumed-slot bitset.
type BucketState struct {
	Node     uint64
	Blocks   []BlockEntry
	Used     []uint64
	Accessed int
}

// State exports every materialized bucket, sorted by node id so the
// checkpoint layout is deterministic. Slices are copies, carved out of two
// arrays sized once (a checkpoint of 2^15 blocks exports ~4.4 k buckets:
// two allocations instead of two per bucket); an empty one stays nil.
func (s *Store) State() []BucketState {
	nBlocks, nUsed := 0, 0
	s.index.Range(func(_ uint64, ref uint32) {
		b := s.at(ref)
		nBlocks += len(b.Blocks)
		nUsed += len(b.used)
	})
	blocks, used := make([]BlockEntry, 0, nBlocks), make([]uint64, 0, nUsed)
	out := make([]BucketState, 0, s.Materialized())
	s.index.Range(func(node uint64, ref uint32) {
		b := s.at(ref)
		out = append(out, BucketState{
			Node:     node,
			Blocks:   carve(&blocks, b.Blocks),
			Used:     carve(&used, b.used),
			Accessed: b.Accessed,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// carve appends a copy of src to arena, which has room for it, and returns
// the copy capped at its own length; nil for an empty src.
func carve[T any](arena *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	n := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[n:len(*arena):len(*arena)]
}

// Restore replaces the store's contents with a previously exported State.
func (s *Store) Restore(bs []BucketState) {
	s.index.Reset()
	s.slab = nil
	for _, st := range bs {
		*s.Bucket(st.Node) = Bucket{
			Blocks:   append([]BlockEntry(nil), st.Blocks...),
			used:     append([]uint64(nil), st.Used...),
			Accessed: st.Accessed,
		}
	}
}

// Occupancy returns the number of valid real blocks in node (0 for
// untouched buckets).
func (s *Store) Occupancy(node uint64) int {
	b, ok := s.peek(node)
	if !ok {
		return 0
	}
	return len(b.Blocks)
}

// ForEachBlock calls fn for every valid real block in every materialized
// bucket (testing/invariant checking).
func (s *Store) ForEachBlock(fn func(node uint64, e BlockEntry)) {
	s.index.Range(func(node uint64, ref uint32) {
		for _, e := range s.at(ref).Blocks {
			fn(node, e)
		}
	})
}

// TreeTop models the on-chip tree-top cache: the top K levels of the tree
// (bucket payloads and metadata) live in scratchpad, so accesses to them
// cost no DRAM traffic.
type TreeTop struct {
	levels int
}

// NewTreeTop sizes the cache: the largest K such that levels 0..K-1 fit in
// capacityBytes given the geometry's bucket sizes (metadata included, one
// line per node).
func NewTreeTop(g Geometry, capacityBytes uint64) TreeTop {
	var used uint64
	k := 0
	for l := 0; l <= g.Depth; l++ {
		levelBytes := (uint64(1) << l) * uint64(g.Levels[l].Slots()*g.SlotLines+1) * BlockBytes
		if used+levelBytes > capacityBytes {
			break
		}
		used += levelBytes
		k++
	}
	return TreeTop{levels: k}
}

// Levels returns how many top levels are cached.
func (t TreeTop) Levels() int { return t.levels }

// Cached reports whether a node at the given level is served on-chip.
func (t TreeTop) Cached(level int) bool { return level < t.levels }
