// Package paged provides the one index structure of the serving hot path:
// a direct-indexed table from small integer keys (tree nodes, block ids) to
// non-zero uint32 values, whose pages are allocated on first touch.
//
// It replaces the four Go maps an access used to consult: three in the
// engine (bucket store, position map, stash index) and the sealed-block
// store under it (internal/backend/slab). A lookup is two dependent
// loads and no hashing; memory is one 256-byte page per 64-key run that has
// ever held a value plus one directory pointer per run below the highest
// key touched, so a fully used table costs 4 bytes a key where a map costs
// about 40.
//
// The price of direct indexing is paid by key sets that are huge and
// sparse: one random key in a 2^28-key space costs a whole page and its
// directory entry, ten to a hundred times a map entry. The simulator's
// paper-scale (16 GB) spaces are exactly that, so a table built for more
// than DirectKeys keys keeps its entries in a map instead — the choice is
// made once, from the geometry, by New; both sides are pinned by the
// determinism goldens (internal/oram/testdata).
package paged

import (
	"encoding/binary"
	"slices"
)

const (
	pageBits = 6
	pageLen  = 1 << pageBits

	// DirectKeys is the largest key-space a Table indexes directly. At
	// 2^20 keys a fully used table is 4 MB of pages and 128 KB of
	// directory; every serving shard up to 64 MB of blocks (and the trees
	// over it) is direct.
	DirectKeys = 1 << 20
)

type page [pageLen]uint32

// Table maps keys in [0, n) to uint32 values; 0 means absent. The zero
// value is a usable direct-indexed table.
type Table struct {
	dir    []*page
	live   int               // keys present in dir's pages
	sparse map[uint64]uint32 // non-nil: the key space is beyond DirectKeys
}

// New returns a table for keys in [0, n).
func New(n uint64) Table {
	if n > DirectKeys {
		return Table{sparse: make(map[uint64]uint32)}
	}
	return Table{}
}

// Get returns the value stored under key i, or 0.
func (t *Table) Get(i uint64) uint32 {
	if t.sparse != nil {
		return t.sparse[i]
	}
	if p := i >> pageBits; p < uint64(len(t.dir)) {
		if pg := t.dir[p]; pg != nil {
			return pg[i&(pageLen-1)]
		}
	}
	return 0
}

// Set stores v under key i; v == 0 removes the key. Pages are never freed:
// the engine's key sets only grow (position maps, buckets) or revisit the
// same keys (stash).
func (t *Table) Set(i uint64, v uint32) {
	if t.sparse != nil {
		if v == 0 {
			delete(t.sparse, i)
		} else {
			t.sparse[i] = v
		}
		return
	}
	p := i >> pageBits
	if p >= uint64(len(t.dir)) {
		if v == 0 {
			return
		}
		t.dir = append(t.dir, make([]*page, p+1-uint64(len(t.dir)))...)
	}
	pg := t.dir[p]
	if pg == nil {
		if v == 0 {
			return
		}
		pg = new(page)
		t.dir[p] = pg
	}
	slot := &pg[i&(pageLen-1)]
	if *slot == 0 && v != 0 {
		t.live++
	} else if *slot != 0 && v == 0 {
		t.live--
	}
	*slot = v
}

// Swap stores v, which must not be 0, under key i and returns the value it
// replaced (0 for an absent key): a Get and a Set in one lookup.
func (t *Table) Swap(i uint64, v uint32) uint32 {
	if t.sparse != nil {
		old := t.sparse[i]
		t.sparse[i] = v
		return old
	}
	if p := i >> pageBits; p < uint64(len(t.dir)) {
		if pg := t.dir[p]; pg != nil {
			slot := &pg[i&(pageLen-1)]
			old := *slot
			if old == 0 {
				t.live++
			}
			*slot = v
			return old
		}
	}
	t.Set(i, v)
	return 0
}

// Len returns the number of keys present.
func (t *Table) Len() int {
	if t.sparse != nil {
		return len(t.sparse)
	}
	return t.live
}

// Range calls fn for every key present: in ascending key order from a
// direct table, in no particular order from a sparse one (Ascending sorts).
func (t *Table) Range(fn func(i uint64, v uint32)) {
	if t.sparse != nil {
		for k, v := range t.sparse {
			fn(k, v)
		}
		return
	}
	for p, pg := range t.dir {
		if pg == nil {
			continue
		}
		for o, v := range pg {
			if v != 0 {
				fn(uint64(p)<<pageBits|uint64(o), v)
			}
		}
	}
}

// Ascending is Range in ascending key order from either representation:
// a sparse table sorts a copy of its keys first (one allocation), a direct
// one already ranges that way. Checkpoints and snapshots write in this
// order, so one content always encodes to the same bytes.
func (t *Table) Ascending(fn func(i uint64, v uint32)) {
	if t.sparse == nil {
		t.Range(fn)
		return
	}
	keys := make([]uint64, 0, len(t.sparse))
	for k := range t.sparse {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fn(k, t.sparse[k])
	}
}

// AppendDense appends the values of keys [0, n) to dst as little-endian
// uint32s, 0 for an absent key: 4n bytes whatever the table holds. Keys
// at or beyond n are not written.
func (t *Table) AppendDense(dst []byte, n uint64) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, 4*n)...)
	out := dst[off:]
	put := func(i uint64, v uint32) {
		if i < n {
			binary.LittleEndian.PutUint32(out[4*i:], v)
		}
	}
	if t.sparse != nil {
		for k, v := range t.sparse {
			put(k, v)
		}
		return dst
	}
	for p, pg := range t.dir {
		if pg == nil {
			continue
		}
		base := uint64(p) << pageBits
		if base >= n {
			break
		}
		for o, v := range pg {
			if v != 0 {
				put(base|uint64(o), v)
			}
		}
	}
	return dst
}

// Reset empties the table, keeping its representation.
func (t *Table) Reset() {
	if t.sparse != nil {
		clear(t.sparse)
		return
	}
	*t = Table{}
}
