package stash

import (
	"testing"

	"palermo/internal/otree"
)

// BenchmarkStashEvict measures the eviction scan: EvictInto is called once
// per bucket per eviction path on every ORAM access, so its per-bucket cost
// is a first-order term in single-run throughput. The workload keeps ~260
// live entries under constant churn (puts + path evictions), which is the
// regime where a tombstone-accumulating layout degrades.
func BenchmarkStashEvict(b *testing.B) {
	g := otree.Uniform(1<<20, 16, 27, 0, 1<<40)
	s := New()
	leaves := g.NumLeaves()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	id := otree.BlockID(1)
	for i := 0; i < 256; i++ {
		s.Put(Entry{ID: id, Leaf: next() % leaves})
		id++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			s.Put(Entry{ID: id, Leaf: next() % leaves})
			id++
		}
		evictLeaf := next() % leaves
		for lvl := g.Depth; lvl >= 0; lvl-- {
			s.EvictIntoNode(&g, g.NodeAt(evictLeaf, lvl), 16, nil)
		}
	}
}

// BenchmarkStashChurn measures the Put/Remove pair in isolation (the
// PosMap-hit fast path touches the stash without evicting).
func BenchmarkStashChurn(b *testing.B) {
	s := New()
	for i := 0; i < 256; i++ {
		s.Put(Entry{ID: otree.BlockID(i), Leaf: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := otree.BlockID(256 + i%1024)
		s.Put(Entry{ID: id, Leaf: uint64(i)})
		s.Remove(id)
	}
}
