package paged

import (
	"testing"

	"palermo/internal/rng"
)

// TestTableMatchesMap drives the direct and the sparse representation and
// a plain map through one random Set/Swap/Get sequence (including removals
// and overwrites) and requires all three to agree on every Get, on Len, on
// what Range enumerates and on Ascending's order.
func TestTableMatchesMap(t *testing.T) {
	const keys = 5000
	direct, sparse := New[uint32](keys), New[uint32](DirectKeys+1)
	if direct.sparse != nil || sparse.sparse == nil {
		t.Fatalf("New picked the wrong representation")
	}
	ref := map[uint64]uint32{}
	r := rng.New(3)
	for i := 0; i < 40000; i++ {
		k := r.Uint64n(keys)
		switch r.Uint64n(4) {
		case 0:
			direct.Set(k, 0)
			sparse.Set(k, 0)
			delete(ref, k)
		case 1:
			v := uint32(r.Uint64n(1<<32-1)) + 1
			if d, s, w := direct.Swap(k, v), sparse.Swap(k, v), ref[k]; d != w || s != w {
				t.Fatalf("step %d: Swap(%d) returned direct=%d sparse=%d want %d", i, k, d, s, w)
			}
			ref[k] = v
		default:
			v := uint32(r.Uint64n(1<<32-1)) + 1
			direct.Set(k, v)
			sparse.Set(k, v)
			ref[k] = v
		}
		probe := r.Uint64n(keys + 100)
		if d, s, w := direct.Get(probe), sparse.Get(probe), ref[probe]; d != w || s != w {
			t.Fatalf("step %d key %d: direct=%d sparse=%d want %d", i, probe, d, s, w)
		}
		if direct.Len() != len(ref) || sparse.Len() != len(ref) {
			t.Fatalf("step %d: Len direct=%d sparse=%d want %d", i, direct.Len(), sparse.Len(), len(ref))
		}
	}
	for name, tb := range map[string]*Table[uint32]{"direct": &direct, "sparse": &sparse} {
		seen, last := map[uint64]bool{}, uint64(0)
		tb.Range(func(k uint64, v uint32) {
			if seen[k] || ref[k] != v {
				t.Fatalf("%s: Range(%d) = %d (seen before: %v), want %d", name, k, v, seen[k], ref[k])
			}
			seen[k], last = true, k
		})
		if len(seen) != len(ref) {
			t.Fatalf("%s: Range visited %d keys, want %d", name, len(seen), len(ref))
		}
		n, next := 0, uint64(0)
		tb.Ascending(func(k uint64, v uint32) {
			if k < next || ref[k] != v {
				t.Fatalf("%s: Ascending(%d) = %d after key %d, want %d", name, k, v, next, ref[k])
			}
			n, next = n+1, k+1
		})
		if n != len(ref) {
			t.Fatalf("%s: Ascending visited %d keys, want %d", name, n, len(ref))
		}
		tb.Reset()
		if tb.Len() != 0 || tb.Get(last) != 0 {
			t.Fatalf("%s: Reset left entries behind", name)
		}
	}
	if sparse.sparse == nil {
		t.Fatalf("Reset changed the representation")
	}
}

// TestZeroTable: the zero value is an empty direct table, and removing an
// absent key allocates nothing.
func TestZeroTable(t *testing.T) {
	var tb Table[uint32]
	if tb.Get(12345) != 0 || tb.Len() != 0 {
		t.Fatalf("zero table is not empty")
	}
	tb.Set(1<<30, 0)
	if len(tb.dir) != 0 {
		t.Fatalf("removing an absent key grew the directory to %d", len(tb.dir))
	}
	tb.Set(70, 5)
	if tb.Get(70) != 5 || tb.Get(71) != 0 || tb.Len() != 1 {
		t.Fatalf("Set/Get on the zero table failed")
	}
}
