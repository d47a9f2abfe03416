package shard

import (
	"bytes"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/backend/wal"
	"palermo/internal/rng"
)

var testKey = []byte("shard-test-key16")

func TestRouterPartition(t *testing.T) {
	const blocks, shards = 1000, 7
	r, err := NewRouter(blocks, shards)
	if err != nil {
		t.Fatal(err)
	}
	// Every id routes to exactly one in-range (shard, local) cell, Global
	// inverts Route, and per-shard capacities sum to the total.
	seen := make(map[[2]uint64]bool)
	for id := uint64(0); id < blocks; id++ {
		s, local := r.Route(id)
		if s < 0 || s >= shards {
			t.Fatalf("id %d routed to shard %d", id, s)
		}
		if local >= r.ShardBlocks(s) {
			t.Fatalf("id %d local %d exceeds shard %d capacity %d", id, local, s, r.ShardBlocks(s))
		}
		if g := r.Global(s, local); g != id {
			t.Fatalf("Global(Route(%d)) = %d", id, g)
		}
		cell := [2]uint64{uint64(s), local}
		if seen[cell] {
			t.Fatalf("cell %v hit twice", cell)
		}
		seen[cell] = true
	}
	var total uint64
	for s := 0; s < shards; s++ {
		total += r.ShardBlocks(s)
	}
	if total != blocks {
		t.Fatalf("shard capacities sum to %d, want %d", total, blocks)
	}
}

// TestRouterGlobalRouteRoundTrip property-tests the routing bijection:
// Global(Route(id)) == id for random ids over random (blocks, shards)
// configurations, including huge sparse id spaces.
func TestRouterGlobalRouteRoundTrip(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 200; trial++ {
		blocks := 1 + r.Uint64n(1<<40)
		shards := 1 + r.Intn(MaxTestShards)
		if uint64(shards) > blocks {
			shards = int(blocks)
		}
		rt, err := NewRouter(blocks, shards)
		if err != nil {
			t.Fatalf("NewRouter(%d, %d): %v", blocks, shards, err)
		}
		for i := 0; i < 64; i++ {
			id := r.Uint64n(blocks)
			s, local := rt.Route(id)
			if g := rt.Global(s, local); g != id {
				t.Fatalf("blocks=%d shards=%d: Global(Route(%d)) = %d", blocks, shards, id, g)
			}
			if local >= rt.ShardBlocks(s) {
				t.Fatalf("blocks=%d shards=%d: id %d local %d >= ShardBlocks(%d)=%d",
					blocks, shards, id, local, s, rt.ShardBlocks(s))
			}
		}
	}
}

// MaxTestShards bounds the property-test shard counts (mirrors the public
// MaxShards cap without importing the root package).
const MaxTestShards = 1024

// TestRouterShardBlocksSum property-tests capacity partitioning:
// ShardBlocks sums to Blocks() for every shard count from 1 up to and
// including the shards == blocks edge, over assorted capacities.
func TestRouterShardBlocksSum(t *testing.T) {
	r := rng.New(7)
	capacities := []uint64{1, 2, 3, 17, 64, 1000, 1 << 20}
	for trial := 0; trial < 50; trial++ {
		capacities = append(capacities, 1+r.Uint64n(1<<22))
	}
	for _, blocks := range capacities {
		shardCounts := []uint64{1, 2, blocks / 2, blocks - 1, blocks}
		for _, sc := range shardCounts {
			if sc < 1 || sc > blocks || sc > MaxTestShards {
				continue
			}
			rt, err := NewRouter(blocks, int(sc))
			if err != nil {
				t.Fatalf("NewRouter(%d, %d): %v", blocks, sc, err)
			}
			var total uint64
			for s := 0; s < int(sc); s++ {
				n := rt.ShardBlocks(s)
				if n == 0 {
					t.Fatalf("blocks=%d shards=%d: shard %d is empty", blocks, sc, s)
				}
				if sc == blocks && n != 1 {
					t.Fatalf("blocks=%d shards=%d: shard %d holds %d blocks, want exactly 1", blocks, sc, s, n)
				}
				total += n
			}
			if total != rt.Blocks() {
				t.Fatalf("blocks=%d shards=%d: ShardBlocks sums to %d, want %d", blocks, sc, total, rt.Blocks())
			}
		}
	}
}

func TestRouterRejects(t *testing.T) {
	if _, err := NewRouter(0, 1); err == nil {
		t.Fatal("zero capacity must error")
	}
	if _, err := NewRouter(10, 0); err == nil {
		t.Fatal("zero shards must error")
	}
	if _, err := NewRouter(3, 4); err == nil {
		t.Fatal("more shards than blocks must error")
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for base := uint64(1); base <= 4; base++ {
		for i := 0; i < 16; i++ {
			s := DeriveSeed(base, i)
			if s == 0 {
				t.Fatal("derived seed must be non-zero")
			}
			if seen[s] {
				t.Fatalf("seed collision at base=%d i=%d", base, i)
			}
			seen[s] = true
		}
	}
}

func TestShardRoundTrip(t *testing.T) {
	sh, err := New(1, 4, 1<<12, testKey, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, BlockBytes)
	if err := sh.Write(9, data); err != nil {
		t.Fatal(err)
	}
	got, err := sh.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip failed")
	}
	// Unwritten blocks read as zeros after a full-protocol access.
	zero, err := sh.Read(10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, make([]byte, BlockBytes)) {
		t.Fatal("unwritten block must read as zeros")
	}
	// Errors: out-of-range and short blocks.
	if err := sh.Write(1<<12, data); err == nil {
		t.Fatal("out-of-range write must error")
	}
	if _, err := sh.Read(1 << 12); err == nil {
		t.Fatal("out-of-range read must error")
	}
	if err := sh.Write(0, []byte("short")); err == nil {
		t.Fatal("short block must error")
	}
	c := sh.Snapshot()
	if c.Reads != 2 || c.Writes != 1 || c.DRAMReads == 0 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestShardDeterministicReplay(t *testing.T) {
	// The same op subsequence into two identically-seeded shards exposes
	// the same leaf sequence — the per-shard §5 determinism contract the
	// service layer relies on.
	run := func() *Trace {
		sh, err := New(2, 4, 1<<10, testKey, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		sh.EnableTrace()
		data := bytes.Repeat([]byte{1}, BlockBytes)
		for i := 0; i < 200; i++ {
			local := uint64(i*37) % (1 << 10)
			if i%3 == 0 {
				if err := sh.Write(local, data); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := sh.Read(local); err != nil {
					t.Fatal(err)
				}
			}
		}
		return sh.Trace()
	}
	a, b := run(), run()
	if len(a.Leaves) != len(b.Leaves) || len(a.Leaves) != 200 {
		t.Fatalf("trace lengths %d vs %d", len(a.Leaves), len(b.Leaves))
	}
	for i := range a.Leaves {
		if a.Leaves[i] != b.Leaves[i] || a.Ops[i] != b.Ops[i] {
			t.Fatalf("trace diverged at op %d", i)
		}
	}
}

// TestShardCheckpointResumesExactly is the strongest restore property: a
// shard checkpointed mid-sequence and reopened from disk continues with
// the exact leaf trace an uninterrupted shard produces — engine RNG,
// posmap, stash, bucket counters, and eviction cadence all resume
// bit-exactly.
func TestShardCheckpointResumesExactly(t *testing.T) {
	const total, cut = 200, 120
	data := bytes.Repeat([]byte{9}, BlockBytes)
	step := func(sh *Shard, i int) {
		local := uint64(i*13) % (1 << 10)
		if i%3 != 2 {
			if err := sh.Write(local, data); err != nil {
				t.Fatal(err)
			}
		} else if _, err := sh.Read(local); err != nil {
			t.Fatal(err)
		}
	}

	// Uninterrupted reference run.
	ref, err := New(0, 1, 1<<10, testKey, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref.EnableTrace()
	for i := 0; i < total; i++ {
		step(ref, i)
	}

	// Durable run: cut at op `cut`, Close (checkpoint), reopen, continue.
	dir := t.TempDir()
	open := func() *Shard {
		be, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := New(0, 1, 1<<10, testKey, 5, be)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	sh := open()
	for i := 0; i < cut; i++ {
		step(sh, i)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	sh = open()
	sh.EnableTrace()
	for i := cut; i < total; i++ {
		step(sh, i)
	}
	got := sh.Trace().Leaves
	wantLeaves := ref.Trace().Leaves[cut:]
	if len(got) != len(wantLeaves) {
		t.Fatalf("resumed trace has %d leaves, want %d", len(got), len(wantLeaves))
	}
	for i := range got {
		if got[i] != wantLeaves[i] {
			t.Fatalf("leaf trace diverged at post-restore op %d: %d != %d", i, got[i], wantLeaves[i])
		}
	}
	c := sh.Snapshot()
	if want := ref.Snapshot(); c != want {
		t.Fatalf("resumed counters %+v, want %+v", c, want)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardSeedsDecorrelated(t *testing.T) {
	// Identical op sequences on different shard indices must expose
	// different leaf sequences (private RNG streams).
	trace := func(index int) []uint64 {
		sh, err := New(index, 4, 1<<10, testKey, DeriveSeed(1, index), nil)
		if err != nil {
			t.Fatal(err)
		}
		sh.EnableTrace()
		for i := 0; i < 50; i++ {
			if _, err := sh.Read(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return sh.Trace().Leaves
	}
	a, b := trace(0), trace(3)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different shards produced identical leaf sequences")
	}
}

// TestShardInlineAllocs guards the run-to-completion op path over the
// memory backend and over the WAL (ids already stored, no checkpoint inside
// the run; "wal-checkpointed" reads them from the snapshot file after
// one): a read allocates its plaintext; a write seals into the shard's
// staging arena, is framed into the log's buffer and copied into the
// backend's slab, and allocates nothing — nor do the engine and the
// sealer's keystream.
func TestShardInlineAllocs(t *testing.T) {
	for _, engine := range []string{"memory", "wal", "wal-checkpointed"} {
		t.Run(engine, func(t *testing.T) {
			var be backend.Backend
			if engine != "memory" {
				w, err := wal.Open(t.TempDir(), wal.Options{Capacity: 1 << 10})
				if err != nil {
					t.Fatal(err)
				}
				be = w
			}
			s, err := New(0, 1, 1<<10, testKey, 5, be)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.SetCheckpointEvery(0)
			data := bytes.Repeat([]byte{0x5A}, BlockBytes)
			for id := uint64(0); id < 1<<10; id++ {
				if err := s.Write(id, data); err != nil {
					t.Fatal(err)
				}
			}
			if engine == "wal-checkpointed" {
				// Every block now lives in the snapshot file: reads copy
				// it out of the mapping.
				if err := s.checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			id := uint64(0)
			if n := testing.AllocsPerRun(2000, func() {
				id = (id + 37) % (1 << 10)
				if _, err := s.Read(id); err != nil {
					t.Fatal(err)
				}
			}); n > 1 {
				t.Errorf("an inline Shard.Read allocates %.1f times, want 1", n)
			}
			if n := testing.AllocsPerRun(2000, func() {
				id = (id + 37) % (1 << 10)
				if err := s.Write(id, data); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("an inline Shard.Write allocates %.2f times, want 0", n)
			}
		})
	}
}
