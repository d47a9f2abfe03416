// Package paged provides the one index structure of the serving hot path:
// a direct-indexed table from small integer keys (tree nodes, block ids) to
// non-zero values, whose pages are allocated on first touch.
//
// It replaces the Go maps an access used to consult: in the engine the
// bucket store and the position map (with, beside each level's leaves, the
// values of its blocks), and under it the sealed-block store
// (internal/backend/slab). The stash, which holds a few hundred blocks,
// indexes them in a hash table of its own size instead (a table over every
// block id cost 4 bytes a block). A lookup is two dependent loads and no
// hashing; memory is one page per 64-key run that has ever held a value
// plus one directory pointer per run below the highest key touched, so a
// fully used table of uint32 values costs 4 bytes a key where a map costs
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

import "slices"

const (
	pageBits = 6
	pageLen  = 1 << pageBits

	// DirectKeys is the largest key-space a Table indexes directly. At
	// 2^20 keys a fully used table is 4 MB of pages and 128 KB of
	// directory; every serving shard up to 64 MB of blocks (and the trees
	// over it) is direct.
	DirectKeys = 1 << 20
)

// Table maps keys in [0, n) to values of V; V's zero value means absent.
// The zero value is a usable direct-indexed table.
type Table[V comparable] struct {
	dir    []*[pageLen]V
	live   int          // keys present in dir's pages
	sparse map[uint64]V // non-nil: the key space is beyond DirectKeys
}

// New returns a table for keys in [0, n).
func New[V comparable](n uint64) Table[V] {
	if n > DirectKeys {
		return Table[V]{sparse: make(map[uint64]V)}
	}
	return Table[V]{}
}

// Get returns the value stored under key i, or the zero value.
func (t *Table[V]) Get(i uint64) V {
	if t.sparse != nil {
		return t.sparse[i]
	}
	if p := i >> pageBits; p < uint64(len(t.dir)) {
		if pg := t.dir[p]; pg != nil {
			return pg[i&(pageLen-1)]
		}
	}
	var zero V
	return zero
}

// Set stores v under key i; the zero value removes the key. Pages are
// never freed: the engine's key sets only grow (position maps, buckets)
// or revisit the same keys (values of tree-resident blocks).
func (t *Table[V]) Set(i uint64, v V) {
	var zero V
	if t.sparse != nil {
		if v == zero {
			delete(t.sparse, i)
		} else {
			t.sparse[i] = v
		}
		return
	}
	p := i >> pageBits
	if p >= uint64(len(t.dir)) {
		if v == zero {
			return
		}
		t.dir = append(t.dir, make([]*[pageLen]V, p+1-uint64(len(t.dir)))...)
	}
	pg := t.dir[p]
	if pg == nil {
		if v == zero {
			return
		}
		pg = new([pageLen]V)
		t.dir[p] = pg
	}
	slot := &pg[i&(pageLen-1)]
	if *slot == zero && v != zero {
		t.live++
	} else if *slot != zero && v == zero {
		t.live--
	}
	*slot = v
}

// Swap stores v, which must not be the zero value, under key i and returns
// the value it replaced (zero for an absent key): a Get and a Set in one
// lookup.
func (t *Table[V]) Swap(i uint64, v V) V {
	var zero V
	if t.sparse != nil {
		old := t.sparse[i]
		t.sparse[i] = v
		return old
	}
	if p := i >> pageBits; p < uint64(len(t.dir)) {
		if pg := t.dir[p]; pg != nil {
			slot := &pg[i&(pageLen-1)]
			old := *slot
			if old == zero {
				t.live++
			}
			*slot = v
			return old
		}
	}
	t.Set(i, v)
	return zero
}

// Len returns the number of keys present.
func (t *Table[V]) Len() int {
	if t.sparse != nil {
		return len(t.sparse)
	}
	return t.live
}

// Range calls fn for every key present: in ascending key order from a
// direct table, in no particular order from a sparse one (Ascending sorts).
func (t *Table[V]) Range(fn func(i uint64, v V)) {
	if t.sparse != nil {
		for k, v := range t.sparse {
			fn(k, v)
		}
		return
	}
	var zero V
	for p, pg := range t.dir {
		if pg == nil {
			continue
		}
		for o, v := range pg {
			if v != zero {
				fn(uint64(p)<<pageBits|uint64(o), v)
			}
		}
	}
}

// Ascending is Range in ascending key order from either representation:
// a sparse table sorts a copy of its keys first (one allocation), a direct
// one already ranges that way. Checkpoints and snapshots write in this
// order, so one content always encodes to the same bytes.
func (t *Table[V]) Ascending(fn func(i uint64, v V)) {
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

// Reset empties the table, keeping its representation.
func (t *Table[V]) Reset() {
	if t.sparse != nil {
		clear(t.sparse)
		return
	}
	*t = Table[V]{}
}
