package palermo

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"palermo/internal/rng"
	"palermo/internal/shard"
)

func testShardedStore(t *testing.T, shards int) *ShardedStore {
	t.Helper()
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 14, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// engines lists st's shard engines by shard index, for the suites that arm
// traces on them before serving and read those traces back.
func engines(st *ShardedStore) []*shard.Shard {
	out := make([]*shard.Shard, len(st.slots))
	for s, sl := range st.slots {
		out[s] = sl.sh
	}
	return out
}

func block(fill byte) []byte {
	return bytes.Repeat([]byte{fill}, BlockSize)
}

func TestShardedStoreRoundTrip(t *testing.T) {
	st := testShardedStore(t, 4)
	if err := st.Write(7, block(0xAA)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(0xAA)) {
		t.Fatal("round trip failed")
	}
}

func TestStoreOverwrite(t *testing.T) {
	st := testShardedStore(t, 1)
	st.Write(3, block(1))
	st.Write(3, block(2))
	got, err := st.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(2)) {
		t.Fatal("overwrite not visible")
	}
}

func TestStoreUnwrittenReadsZero(t *testing.T) {
	st := testShardedStore(t, 1)
	got, err := st.Read(99)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("unwritten block must read as zeros")
	}
}

func TestShardedStoreErrors(t *testing.T) {
	st := testShardedStore(t, 2)
	if err := st.Write(1<<14, block(0)); err == nil {
		t.Fatal("out-of-range write must error")
	}
	if _, err := st.Read(1 << 14); err == nil {
		t.Fatal("out-of-range read must error")
	}
	if err := st.Write(0, []byte("short")); err == nil {
		t.Fatal("short block must error")
	}
	if _, err := st.ReadBatch([]uint64{0, 1 << 14}); err == nil {
		t.Fatal("out-of-range batch read must error")
	}
	if err := st.WriteBatch([]uint64{0, 1}, [][]byte{block(0)}); err == nil {
		t.Fatal("mismatched batch lengths must error")
	}
}

// TestStoreTrafficReport: a one-shard store counts its operations and the
// DRAM lines the protocol moved for them, at a plausible ORAM
// amplification.
func TestStoreTrafficReport(t *testing.T) {
	st := testShardedStore(t, 1)
	st.Write(1, block(1))
	st.Read(1)
	// Writes to DRAM only happen on the periodic eviction (every A=20
	// accesses), so run past one eviction boundary.
	for i := uint64(2); i < 42; i++ {
		st.Read(i)
	}
	rep := st.Traffic()
	if rep.Reads != 41 || rep.Writes != 1 {
		t.Fatalf("ops: %+v", rep)
	}
	if rep.DRAMReads == 0 || rep.DRAMWrites == 0 {
		t.Fatal("traffic not tracked")
	}
	// ORAM amplification: one op costs on the order of 100 lines.
	if rep.AmplificationFactor < 20 || rep.AmplificationFactor > 2000 {
		t.Fatalf("amplification = %.0f, implausible", rep.AmplificationFactor)
	}
	if rep.StashPeak <= 0 || rep.StashPeak > 256 {
		t.Fatalf("stash peak %d", rep.StashPeak)
	}
}

// TestShardedStoreConfigValidation table-drives every ShardedStoreConfig
// field's rejection path; the valid-edge companion cases live below.
func TestShardedStoreConfigValidation(t *testing.T) {
	rejected := []struct {
		field string
		cfg   ShardedStoreConfig
	}{
		{"Shards negative", ShardedStoreConfig{Blocks: 1 << 10, Shards: -1}},
		{"Shards beyond MaxShards", ShardedStoreConfig{Blocks: 1 << 10, Shards: MaxShards + 1}},
		{"Shards exceed Blocks", ShardedStoreConfig{Blocks: 2, Shards: 4}}, // a shard would be empty
		{"Blocks overflow", ShardedStoreConfig{Blocks: MaxBlocks * 2}},
		{"Blocks just past cap", ShardedStoreConfig{Blocks: MaxBlocks + 1}},
		{"Key bad length", ShardedStoreConfig{Blocks: 1 << 10, Key: []byte("not-a-valid-aes-key")}},
		{"QueueDepth negative", ShardedStoreConfig{Blocks: 1 << 10, QueueDepth: -1}},
		{"Engine unknown", ShardedStoreConfig{Blocks: 1 << 10, Engine: "etcd"}},
		{"Engine memory with Dir", ShardedStoreConfig{Blocks: 1 << 10, Engine: BackendMemory, Dir: t.TempDir()}},
		{"Engine wal without Dir", ShardedStoreConfig{Blocks: 1 << 10, Engine: BackendWAL}},
	}
	for _, tc := range rejected {
		_, err := NewShardedStore(tc.cfg)
		if err == nil {
			t.Fatalf("%s: config %+v must be rejected", tc.field, tc.cfg)
		}
		if !strings.HasPrefix(err.Error(), "palermo:") {
			t.Fatalf("%s: error %q lacks palermo: prefix", tc.field, err)
		}
	}
	accepted := []struct {
		field string
		cfg   ShardedStoreConfig
	}{
		{"zero value defaults", ShardedStoreConfig{}},
		{"Shards equal Blocks", ShardedStoreConfig{Blocks: 8, Shards: 8}},
		{"QueueDepth explicit", ShardedStoreConfig{Blocks: 1 << 10, QueueDepth: 1}},
		{"CheckpointEvery negative disables", ShardedStoreConfig{Blocks: 1 << 10, Shards: 2, Engine: BackendWAL, Dir: t.TempDir(), CheckpointEvery: -1}},
		{"GroupCommit negative defaults", ShardedStoreConfig{Blocks: 1 << 10, Shards: 2, Engine: BackendWAL, Dir: t.TempDir(), GroupCommit: -1}},
	}
	for _, tc := range accepted {
		st, err := NewShardedStore(tc.cfg)
		if err != nil {
			t.Fatalf("%s: config %+v rejected: %v", tc.field, tc.cfg, err)
		}
		st.Close()
	}
}

func TestShardedStoreDefaults(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Blocks() != 1<<20 || st.Shards() != 4 {
		t.Fatalf("defaults: %d blocks, %d shards", st.Blocks(), st.Shards())
	}
}

// TestDefaultExecutorPerEngine pins the one executor: on every engine a
// store runs one goroutine per shard, its worker, plus a durable engine's
// one group-commit helper (durable.Batch: the WAL's commits, blockfile's
// commits and writeback hints, on every platform) — and the deprecated
// Shard.EnablePipeline changes neither that count nor a served byte or an
// exposed leaf.
func TestDefaultExecutorPerEngine(t *testing.T) {
	const shards = 3
	// Goroutines of earlier tests may still be exiting; wait them out so the
	// deltas below are this test's own.
	settled := func() int {
		n := runtime.NumGoroutine()
		for quiet := 0; quiet < 5; {
			time.Sleep(2 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				quiet++
			} else {
				n, quiet = m, 0
			}
		}
		return n
	}
	ops := recordNetOps(1<<10, 120)
	for _, tc := range []struct {
		engine   string
		perShard int // goroutines per shard
	}{
		{BackendMemory, 1},
		{BackendWAL, 2},
		{BackendBlockfile, 2},
	} {
		run := func(enable bool) (payloads [][]byte, traces []LeafTrace) {
			t.Helper()
			cfg := ShardedStoreConfig{Blocks: 1 << 10, Shards: shards, Engine: tc.engine}
			if tc.engine != BackendMemory {
				cfg.Dir = t.TempDir()
			}
			before := settled()
			st, err := NewShardedStore(cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.engine, err)
			}
			st.EnableTraces()
			if enable {
				for _, sh := range engines(st) {
					sh.EnablePipeline(4)
				}
			}
			payloads = playNetOps(t, st, ops)
			if added := settled() - before; added != tc.perShard*shards {
				t.Errorf("%s (EnablePipeline %v): %d shards run %d goroutines, want %d each", tc.engine, enable, shards, added, tc.perShard)
			}
			traces = st.LeafTraces()
			if err := st.Close(); err != nil {
				t.Fatalf("%s: %v", tc.engine, err)
			}
			return payloads, traces
		}
		wantPayloads, wantTraces := run(false)
		gotPayloads, gotTraces := run(true)
		if !reflect.DeepEqual(gotPayloads, wantPayloads) || !reflect.DeepEqual(gotTraces, wantTraces) {
			t.Errorf("%s: EnablePipeline(4) changed what the store served", tc.engine)
		}
	}
}

// TestShardedReadBatchAllocs guards the allocation budget of the inline
// serving path: one ReadBatch(16) over two memory shards, one id repeated.
// What remains is the call (result channel, its closure, the join, the
// result and position arrays), per shard one request slab and one
// completion closure, and per block its plaintext — the repeated id adds
// the dedup cache's copy. 27, where the parent commit made 119.
func TestShardedReadBatchAllocs(t *testing.T) {
	st := testShardedStore(t, 2)
	ids := make([]uint64, 16)
	for i := range ids {
		ids[i] = uint64(i * 37)
		if err := st.Write(ids[i], block(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	ids[15] = ids[1]
	read := func() {
		if _, err := st.ReadBatch(ids); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		read()
	}
	allocs := testing.AllocsPerRun(1000, read)
	if allocs > 28 {
		t.Errorf("a ReadBatch(16) allocates %.0f times, ceiling 28", allocs)
	}
	t.Logf("allocations per ReadBatch(16): %.0f", allocs)
}

// TestShardedStoreMatchesReference drives a serial mixed workload and
// checks every read against a plain map reference.
func TestShardedStoreMatchesReference(t *testing.T) {
	st := testShardedStore(t, 3)
	r := rng.New(11)
	ref := make(map[uint64]byte)
	for i := 0; i < 1500; i++ {
		id := r.Uint64n(1 << 14)
		if r.Uint64()%2 == 0 {
			fill := byte(r.Uint64())
			if err := st.Write(id, block(fill)); err != nil {
				t.Fatal(err)
			}
			ref[id] = fill
		} else {
			got, err := st.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			want := byte(0)
			if f, ok := ref[id]; ok {
				want = f
			}
			if got[0] != want || got[BlockSize-1] != want {
				t.Fatalf("block %d corrupted at op %d", id, i)
			}
		}
	}
}

// TestShardedStoreConcurrentHammer has N goroutines hammer the store on
// disjoint id sets so each can verify reads exactly; the race detector
// guards the shared machinery.
func TestShardedStoreConcurrentHammer(t *testing.T) {
	st := testShardedStore(t, 4)
	const clients = 8
	const opsPer = 300
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(100 + c))
			last := make(map[uint64]byte)
			for i := 0; i < opsPer; i++ {
				// ids congruent to c mod clients: disjoint ownership, but
				// spread across every shard (4 shards vs 8 clients).
				id := r.Uint64n(1<<14/clients)*clients + uint64(c)
				if r.Uint64()%3 == 0 {
					fill := byte(r.Uint64())
					if err := st.Write(id, block(fill)); err != nil {
						errs <- err
						return
					}
					last[id] = fill
				} else {
					got, err := st.Read(id)
					if err != nil {
						errs <- err
						return
					}
					want := last[id] // zero value if never written
					if got[0] != want || got[BlockSize-1] != want {
						errs <- fmt.Errorf("client %d: block %d corrupted", c, id)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rep := st.Traffic()
	if rep.Reads+rep.Writes != clients*opsPer {
		t.Fatalf("traffic ops = %d+%d, want %d", rep.Reads, rep.Writes, clients*opsPer)
	}
	// Per-shard trees hold 2^14/4 blocks, so amplification is lower than
	// the single 2^14 store's — but still clearly ORAM-shaped.
	if rep.DRAMReads == 0 || rep.AmplificationFactor < 5 {
		t.Fatalf("implausible traffic: %+v", rep)
	}
}

// TestShardedStoreBatchDedup checks the tentpole dedup invariant: duplicate
// ids in one batch are served by a single ORAM access whose payload fans
// out identically to every waiter.
func TestShardedStoreBatchDedup(t *testing.T) {
	st := testShardedStore(t, 2)
	if err := st.Write(6, block(0x3C)); err != nil {
		t.Fatal(err)
	}
	before := st.Traffic()
	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = 6 // all route to one shard, one batch
	}
	got, err := st.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if !bytes.Equal(g, block(0x3C)) {
			t.Fatalf("waiter %d got wrong payload", i)
		}
	}
	after := st.Traffic()
	if n := after.Reads - before.Reads; n != 1 {
		t.Fatalf("40 duplicate reads performed %d ORAM accesses, want 1", n)
	}
	if st.Stats().DedupHits < 39 {
		t.Fatalf("dedup hits = %d, want >= 39", st.Stats().DedupHits)
	}
	// Waiters own private buffers.
	got[0][0] ^= 0xFF
	if bytes.Equal(got[0], got[1]) {
		t.Fatal("batch waiters share a buffer")
	}
}

func TestShardedStoreBatchMixed(t *testing.T) {
	st := testShardedStore(t, 4)
	ids := []uint64{1, 2, 3, 100, 101, 2, 1}
	blocks := make([][]byte, len(ids))
	for i, id := range ids {
		blocks[i] = block(byte(id))
	}
	if err := st.WriteBatch(ids, blocks); err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if !bytes.Equal(got[i], block(byte(id))) {
			t.Fatalf("position %d (id %d) wrong payload", i, id)
		}
	}
}

// TestShardedStorePathDeterminism extends the §5 determinism contract to
// the service layer: whatever per-shard op subsequence a concurrent run
// produced, replaying it serially into a fresh identically-seeded shard
// reproduces the exact leaf sequence the run exposed.
func TestShardedStorePathDeterminism(t *testing.T) {
	const shards = 3
	const seed = 9
	cfg := ShardedStoreConfig{Blocks: 1 << 12, Shards: shards, Seed: seed}
	st, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range engines(st) {
		sh.EnableTrace() // before any request: the workers are idle
	}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c + 1))
			for i := 0; i < 150; i++ {
				id := r.Uint64n(1 << 12)
				if r.Uint64()%4 == 0 {
					st.Write(id, block(byte(i)))
				} else {
					st.Read(id)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for i, sh := range engines(st) {
		trace := sh.Trace()
		if len(trace.Ops) == 0 {
			t.Fatalf("shard %d served nothing", i)
		}
		replay, err := shard.New(i, shards, st.router.ShardBlocks(i), []byte("palermo-demo-key"), shard.DeriveSeed(seed, i), nil)
		if err != nil {
			t.Fatal(err)
		}
		replay.EnableTrace()
		for _, op := range trace.Ops {
			if op.Write {
				if err := replay.Write(op.Local, block(0)); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := replay.Read(op.Local); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := replay.Trace().Leaves
		for j := range trace.Leaves {
			if got[j] != trace.Leaves[j] {
				t.Fatalf("shard %d: leaf sequence diverged at op %d (%d != %d)",
					i, j, got[j], trace.Leaves[j])
			}
		}
	}
}

func TestShardedStoreClosed(t *testing.T) {
	st := testShardedStore(t, 2)
	if err := st.Write(1, block(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal("close must be idempotent")
	}
	if _, err := st.Read(1); err == nil {
		t.Fatal("read after close must error")
	}
	if err := st.Write(1, block(1)); err == nil {
		t.Fatal("write after close must error")
	}
	// Traffic still reports the pre-close counters.
	if rep := st.Traffic(); rep.Writes != 1 {
		t.Fatalf("post-close traffic: %+v", rep)
	}
}

// ExampleShardedStore demonstrates the concurrent service API.
func ExampleShardedStore() {
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 12, Shards: 2})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	secret := make([]byte, BlockSize)
	copy(secret, "attack at dawn")
	if err := st.Write(7, secret); err != nil {
		panic(err)
	}
	// The duplicate id shares one ORAM access; both copies match.
	got, err := st.ReadBatch([]uint64{7, 7})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(got[0][:14]), bytes.Equal(got[0], got[1]))
	// Output: attack at dawn true
}
