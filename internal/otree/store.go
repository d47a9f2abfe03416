package otree

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"palermo/internal/codec"
	"palermo/internal/paged"
	"palermo/internal/rng"
)

// Values keeps the value of every block, by block id. A bucket stores only
// ids, 4 bytes each: Ring ORAM's buckets are about half empty by design, so
// a value in every bucket entry would pay for the empty half too. The
// engine keeps each value beside the block's leaf in the position map
// (oram.Space), wherever the block rests, so moving a block between bucket
// and stash moves no value; the Store reads and writes values only to
// encode and restore its buckets.
type Values interface {
	Val(id BlockID) uint64
	SetVal(id BlockID, val uint64)
}

// MaxSlots is the widest bucket (Z+S) the consumed-slot bitset holds: two
// 64-bit words.
const (
	MaxSlots  = 128
	usedWords = MaxSlots / 64
)

// Bucket is the functional state of one tree node. A zero-value bucket is a
// freshly reset, empty bucket (all slots valid dummies). Slot permutation is
// tracked as a bitset of consumed slot offsets: RingORAM invalidates the
// touched slot on every access and never re-reads it before a reset. The
// bitset lives inline (MaxSlots bits), so a bucket is one object.
type Bucket struct {
	// ids are the valid real blocks currently stored, each in 32 bits (a
	// tree holds fewer than 2^32-1 blocks, so no stored id is Dummy's low
	// half; oram.MaxLevelBlocks). The capacity survives resets and is at
	// most Z.
	ids []uint32
	// filter has bit id mod 64 set for every block in ids, so a lookup
	// scans only a bucket that can hold the id. It is kept in step with
	// every change to ids (refilter).
	filter   uint64
	used     [usedWords]uint64
	accessed uint16 // touches since the last reset
	// words is the bitset length a checkpoint records: 0 until the
	// bucket's first touch, then every word its slots span.
	words uint8
}

func (b *Bucket) clearUsed() {
	b.used = [usedWords]uint64{}
	b.accessed = 0
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
// serves the root, which every path crosses, and a leaf touched once. A
// bucket holds block ids; their values are kept outside the tree (Values).
type Store struct {
	g     Geometry
	index paged.Table[uint32] // node -> 1 + slab position
	slab  [][]Bucket          // chunkLen buckets per chunk
	r     *rng.Rand

	pulled []BlockID // ResetPull's result, valid until the next pull
}

// NewStore creates an empty tree (every bucket holds only dummies).
func NewStore(g Geometry, r *rng.Rand) *Store {
	return &Store{g: g, index: paged.New[uint32](g.NumNodes()), r: r}
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

// idBit is id's bit in a bucket's filter.
func idBit(id BlockID) uint64 { return 1 << (id & 63) }

// refilter recomputes the id filter from the id list.
func (b *Bucket) refilter() {
	b.filter = 0
	for _, id := range b.ids {
		b.filter |= idBit(BlockID(id))
	}
}

// find returns the index of id in b.ids, or -1.
func (b *Bucket) find(id BlockID) int {
	if b.filter&idBit(id) == 0 {
		return -1
	}
	for i, v := range b.ids {
		if BlockID(v) == id {
			return i
		}
	}
	return -1
}

// Contains reports whether the bucket currently holds id as a valid block.
func (b *Bucket) Contains(id BlockID) bool { return b.find(id) >= 0 }

// selectFree returns the offset of the k-th (from 0) clear bit among the
// first slots bits of used, without a data-dependent branch: the word is
// chosen by a mask from one popcount, the byte and the bit inside it by
// selectInWord. used holds one word, or two when slots exceeds 64; slots is
// at most MaxSlots and k below the number of clear bits.
func selectFree(used []uint64, slots, k int) int {
	var hi uint64
	if len(used) > 1 {
		hi = used[1]
	}
	free0 := ^used[0] & (1<<uint(slots) - 1) // a shift of 64 or more is 0: all ones
	free1 := ^hi & (1<<uint(max(slots-64, 0)) - 1)
	n0 := bits.OnesCount64(free0)
	// second is all ones when the k-th free slot lies in the second word.
	second := -uint64(uint(n0-k-1) >> (bits.UintSize - 1))
	free := free0 ^ (free0^free1)&second
	return int(64&second) + selectInWord(free, k-n0&int(second))
}

const (
	bytes1 = 0x0101010101010101 // 1 in every byte
	bytes8 = 0x8080808080808080 // the high bit of every byte
)

// selectInWord returns the position of the k-th (from 0) set bit of x, k
// below its popcount. The bytes' popcounts are summed into inclusive
// prefixes by one multiply (none exceeds 64, so no byte carries into the
// next); the bytes whose prefix is at most k lie wholly before the bit, and
// one per-byte compare counts them; selectInByte finishes inside the byte.
func selectInWord(x uint64, k int) int {
	c := x - x>>1&0x5555555555555555
	c = c&0x3333333333333333 + c>>2&0x3333333333333333
	c = (c + c>>4) & 0x0f0f0f0f0f0f0f0f
	prefix := c * bytes1
	// Byte i of the difference keeps its high bit iff k >= prefix_i.
	shift := uint(bits.OnesCount64((uint64(k)*bytes1|bytes8-prefix)&bytes8)) * 8
	before := int(prefix << 8 >> shift & 0xff)
	return int(shift) + int(selectInByte[x>>shift&0xff][(k-before)&7])
}

// selectInByte[b][k] is the position of the k-th set bit of byte b.
var selectInByte = func() (t [256][8]uint8) {
	for b := range 256 {
		k := 0
		for i := range 8 {
			if b>>i&1 != 0 {
				t[b][k] = uint8(i)
				k++
			}
		}
	}
	return t
}()

// freeSlot picks a uniformly random unconsumed slot offset, modelling the
// random permutation's effect on DRAM addresses within the bucket (the
// functional model does not track the real permutation; any distinct
// offset is equivalent for timing and the permutation is re-randomized on
// reset).
func (s *Store) freeSlot(b *Bucket, slots int) int {
	free := slots - int(b.accessed)
	if free <= 0 {
		panic("otree: ReadSlot on exhausted bucket (protocol must reset first)")
	}
	b.words = max(b.words, uint8(bitsetWords(slots)))
	return selectFree(b.used[:], slots, s.r.Intn(free))
}

// PathBuckets appends the buckets of nodes (a root→leaf path, so index ==
// level) to dst, materializing them in path order, and returns it. An
// access resolves its path once and hands each bucket, with its level, to
// NeedsReset and ReadSlot.
func (s *Store) PathBuckets(dst []*Bucket, nodes []uint64) []*Bucket {
	for _, n := range nodes {
		dst = append(dst, s.Bucket(n))
	}
	return dst
}

// ReadSlot performs RingORAM's ReadBucket on b, a bucket at level lvl: it
// consumes exactly one slot. If want is present in the bucket the real
// block is removed and ok is true (its value is the caller's: Values);
// otherwise an unused dummy is consumed. The returned slot offset
// determines the DRAM address touched.
//
// The RingORAM invariant guarantees a usable slot exists whenever b has
// had fewer than S touches at entry (the early-reshuffle rule resets before
// exhaustion).
func (s *Store) ReadSlot(b *Bucket, lvl int, want BlockID) (slot int, ok bool) {
	slot = s.freeSlot(b, s.g.Levels[lvl].Slots())
	b.used[slot>>6] |= 1 << (slot & 63)
	b.accessed++
	if i := b.find(want); i >= 0 {
		b.ids = append(b.ids[:i], b.ids[i+1:]...)
		b.refilter()
		return slot, true
	}
	return slot, false
}

// NeedsReset reports whether b, a bucket at level lvl, has consumed its
// guaranteed dummy budget: after S touches a further ReadSlot may find no
// unused dummy.
func (s *Store) NeedsReset(b *Bucket, lvl, margin int) bool {
	return int(b.accessed) >= s.g.Levels[lvl].S-margin
}

// ResetPull removes and returns the ids of all valid real blocks in node,
// modelling ResetBucket's pull step (the DRAM traffic is padded to Z reads
// by the caller for obliviousness). The bucket's access state is cleared.
// The returned slice is the store's scratch: it is valid until the next
// ResetPull, so a caller moves the blocks to the stash before pulling
// again.
func (s *Store) ResetPull(node uint64) []BlockID {
	b := s.Bucket(node)
	s.pulled = s.pulled[:0]
	for _, id := range b.ids {
		s.pulled = append(s.pulled, BlockID(id))
	}
	b.ids, b.filter = b.ids[:0], 0
	b.clearUsed()
	return s.pulled
}

// WriteBucket installs the block ids into node after a reset (their
// values are the caller's: Values). len(ids) must not exceed the level's
// Z. A bucket's storage grows by doubling and never past Z: the deep
// buckets of a sparse tree, which hold a block or two, stay small, and a
// full bucket holds no spare room.
func (s *Store) WriteBucket(node uint64, ids []BlockID) {
	lvl := s.g.NodeLevel(node)
	z := s.g.Levels[lvl].Z
	if len(ids) > z {
		panic(fmt.Sprintf("otree: writing %d blocks into Z=%d bucket", len(ids), z))
	}
	b := s.Bucket(node)
	if len(ids) > cap(b.ids) {
		b.ids = make([]uint32, 0, min(max(len(ids), 2*cap(b.ids)), z))
	}
	b.ids = b.ids[:len(ids)]
	for i, id := range ids {
		b.ids[i] = uint32(id)
	}
	b.refilter()
	b.clearUsed()
}

// Widths of AppendState's output: the bucket count (uint32); per bucket a
// header — node (uint32), touch count (uint16), block count and bitset
// word count (uint8 each) — then each block's id (uint32) and value
// (uint64, from Values), then each consumed-slot bitset word (uint64).
const (
	StateFixedBytes  = 4
	stateBucketBytes = 4 + 2 + 1 + 1
	StateEntryBytes  = 4 + 8
	stateWordBytes   = 8
)

// StateNodeBytes bounds the bytes AppendState spends on one bucket of g
// beside its blocks: the header and the longest bitset. It refuses a
// geometry whose buckets are wider than the inline bitset (MaxSlots, which
// the header's fields also describe).
func StateNodeBytes(g Geometry) (uint64, error) {
	words := 0
	for _, spec := range g.Levels {
		if spec.Slots() > MaxSlots {
			return 0, fmt.Errorf("otree: a bucket of Z=%d, %d slots exceeds the %d-slot limit", spec.Z, spec.Slots(), MaxSlots)
		}
		words = max(words, bitsetWords(spec.Slots()))
	}
	return stateBucketBytes + stateWordBytes*uint64(words), nil
}

// bitsetWords is the consumed-slot bitset length of a touched bucket of
// slots.
func bitsetWords(slots int) int { return (slots + 63) / 64 }

// AppendState appends the checkpoint encoding of every materialized bucket
// to dst, in ascending node order straight from the live buckets, each
// block's value read from vals. Nodes and block ids are written as uint32:
// the engine's checkpointable geometries stay far below 2^32 blocks
// (oram.MaxStateBytes).
func (s *Store) AppendState(dst []byte, vals Values) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Materialized()))
	s.index.Ascending(func(node uint64, ref uint32) {
		b := s.at(ref)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(node))
		dst = binary.LittleEndian.AppendUint16(dst, b.accessed)
		dst = append(dst, uint8(len(b.ids)), b.words)
		for _, id := range b.ids {
			dst = binary.LittleEndian.AppendUint32(dst, id)
			dst = binary.LittleEndian.AppendUint64(dst, vals.Val(BlockID(id)))
		}
		for _, w := range b.used[:b.words] {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	})
	return dst
}

// LoadState replaces the store's contents with an AppendState encoding
// read from r, storing each block's value in vals. It refuses nodes out of
// ascending order or outside the tree, a bucket holding more than Z blocks
// or a block id at or beyond blocks, and a bitset longer than the bucket's
// slots or whose consumed slots are not its touch count (which must leave a
// slot free). Each bucket's ids are carved out of one array with room for
// Z ids, so the buckets later refill in place. On error the store is
// partly overwritten.
func (s *Store) LoadState(r *codec.Reader, blocks uint64, vals Values) error {
	n := r.Count("buckets", s.g.NumNodes(), stateBucketBytes)
	if r.Err() != nil {
		return r.Err()
	}
	maxZ := 0
	for _, spec := range s.g.Levels {
		maxZ = max(maxZ, spec.Z)
	}
	ids := make([]uint32, n*maxZ)
	s.index.Reset()
	s.slab = nil
	next := uint64(0) // the lowest node the next bucket may name
	for i := range n {
		node, accessed := uint64(r.Uint32()), int(r.Uint16())
		nBlocks, nWords := int(r.Uint8()), int(r.Uint8())
		if r.Err() != nil {
			return r.Err()
		}
		if node < next || node >= s.g.NumNodes() {
			return r.Failf("bucket node %d out of order or outside a tree of %d nodes", node, s.g.NumNodes())
		}
		next = node + 1
		spec := s.g.Levels[s.g.NodeLevel(node)]
		if nBlocks > spec.Z || accessed >= spec.Slots() || nWords > bitsetWords(min(spec.Slots(), MaxSlots)) {
			return r.Failf("bucket %d: %d blocks, %d touches, %d bitset words do not fit Z=%d, %d slots",
				node, nBlocks, accessed, nWords, spec.Z, spec.Slots())
		}
		b := Bucket{
			ids:      ids[i*maxZ : i*maxZ+nBlocks : i*maxZ+spec.Z],
			accessed: uint16(accessed),
			words:    uint8(nWords),
		}
		for k := range b.ids {
			id, val := r.Uint32(), r.Uint64()
			if r.Err() != nil {
				return r.Err()
			}
			if uint64(id) >= blocks {
				return r.Failf("bucket %d holds block %d of %d", node, id, blocks)
			}
			b.ids[k] = id
			vals.SetVal(BlockID(id), val)
		}
		b.refilter()
		consumed := 0
		for k := range nWords {
			b.used[k] = r.Uint64()
			if rem := spec.Slots() - 64*k; rem < 64 && b.used[k]>>uint(rem) != 0 {
				return r.Failf("bucket %d consumed a slot beyond its %d", node, spec.Slots())
			}
			consumed += bits.OnesCount64(b.used[k])
		}
		if r.Err() != nil {
			return r.Err()
		}
		if consumed != accessed {
			// Every touch consumes exactly one slot; a bitset that
			// disagrees would send a later free-slot pick past its end.
			return r.Failf("bucket %d: %d touches but %d consumed slots", node, accessed, consumed)
		}
		*s.Bucket(node) = b
	}
	return nil
}

// Occupancy returns the number of valid real blocks in node (0 for
// untouched buckets).
func (s *Store) Occupancy(node uint64) int {
	b, ok := s.peek(node)
	if !ok {
		return 0
	}
	return len(b.ids)
}

// ForEachBlock calls fn for every valid real block in every materialized
// bucket (testing/invariant checking).
func (s *Store) ForEachBlock(fn func(node uint64, id BlockID)) {
	s.index.Range(func(node uint64, ref uint32) {
		for _, id := range s.at(ref).ids {
			fn(node, BlockID(id))
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
