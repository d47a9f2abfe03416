package palermo

// Differential testing: every protocol engine — whatever its tree shape,
// eviction discipline, or bypass tricks — implements the same logical
// memory. Feeding the same operation sequence to all of them must produce
// identical read results, or one of the designs corrupts data. The same
// discipline extends up the stack: the network serving path
// (Client → wire → netserve → ShardedStore) must be indistinguishable
// from calling the store in-process, payload for payload and leaf for
// leaf (TestNetDifferentialEquivalence).

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"

	"palermo/internal/baselines"
	"palermo/internal/oram"
	"palermo/internal/rng"
	"palermo/internal/shard"
)

func allEngines(t *testing.T, lines uint64) map[string]oram.Engine {
	t.Helper()
	engines := make(map[string]oram.Engine)

	pathCfg := oram.DefaultPathConfig()
	pathCfg.NLines = lines
	path, err := oram.NewPath(pathCfg)
	if err != nil {
		t.Fatal(err)
	}
	engines["PathORAM"] = path

	for name, cfgFn := range map[string]func() oram.RingConfig{
		"RingORAM-classic":   oram.DefaultRingConfig,
		"RingORAM-bandwidth": oram.BandwidthRingConfig,
		"Palermo":            oram.PalermoRingConfig,
	} {
		cfg := cfgFn()
		cfg.NLines = lines
		ring, err := oram.NewRing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = ring
	}

	page, err := baselines.NewPageORAM(lines, 1)
	if err != nil {
		t.Fatal(err)
	}
	engines["PageORAM"] = page

	pro, err := baselines.NewPrORAM(lines, 4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	engines["PrORAM"] = pro

	ir, err := baselines.NewIRORAM(lines, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	engines["IR-ORAM"] = ir

	return engines
}

func TestProtocolFunctionalEquivalence(t *testing.T) {
	const lines = 1 << 13
	engines := allEngines(t, lines)

	// A mixed op sequence with heavy reuse so stash hits, evictions,
	// reshuffles, prefetch groups, and bypasses all trigger.
	r := rng.New(1234)
	type op struct {
		pa    uint64
		write bool
		val   uint64
	}
	ops := make([]op, 4000)
	for i := range ops {
		ops[i] = op{
			pa:    r.Uint64n(lines / 4), // quarter of the space: strong reuse
			write: r.Float64() < 0.4,
			val:   r.Uint64(),
		}
	}

	ref := make(map[uint64]uint64)
	expected := make([]uint64, len(ops)) // expected read results (0 if write)
	for i, o := range ops {
		if o.write {
			ref[o.pa] = o.val
		} else {
			expected[i] = ref[o.pa]
		}
	}

	for name, e := range engines {
		for i, o := range ops {
			plan := e.Access(o.pa, o.write, o.val)
			if !o.write && plan.Val != expected[i] {
				t.Fatalf("%s diverged at op %d: read PA %d = %d, want %d",
					name, i, o.pa, plan.Val, expected[i])
			}
		}
		// Every engine must also hold the stash bound through the sequence.
		for l := 0; l < e.Levels(); l++ {
			if m := e.StashMax(l); m > 1024 {
				t.Fatalf("%s level %d stash peaked at %d", name, l, m)
			}
		}
	}
}

// storeAPI is the operation surface shared by *ShardedStore and *Client:
// the differential net test drives both through it with one recorded
// sequence.
type storeAPI interface {
	Read(id uint64) ([]byte, error)
	Write(id uint64, data []byte) error
	ReadBatch(ids []uint64) ([][]byte, error)
	WriteBatch(ids []uint64, blocks [][]byte) error
}

// netOp is one recorded operation of the differential sequence.
type netOp struct {
	kind   int // 0 read, 1 write, 2 readBatch, 3 writeBatch
	id     uint64
	ids    []uint64
	blocks [][]byte
}

// recordNetOps builds a deterministic mixed sequence with id reuse and
// intra-batch duplicates, so stash hits, dedup fan-outs, and per-shard
// batching all trigger on both sides.
func recordNetOps(blocks uint64, n int) []netOp {
	r := rng.New(20250729)
	ops := make([]netOp, n)
	for i := range ops {
		switch r.Uint64n(4) {
		case 0:
			ops[i] = netOp{kind: 0, id: r.Uint64n(blocks / 4)}
		case 1:
			ops[i] = netOp{kind: 1, id: r.Uint64n(blocks / 4)}
		case 2:
			ids := make([]uint64, 1+r.Uint64n(8))
			for j := range ids {
				if j > 0 && r.Uint64n(3) == 0 {
					ids[j] = ids[j-1] // duplicate: exercises batch dedup
				} else {
					ids[j] = r.Uint64n(blocks / 4)
				}
			}
			ops[i] = netOp{kind: 2, ids: ids}
		default:
			ids := make([]uint64, 1+r.Uint64n(4))
			bls := make([][]byte, len(ids))
			for j := range ids {
				ids[j] = r.Uint64n(blocks / 4)
				bls[j] = block(byte(r.Uint64()))
			}
			ops[i] = netOp{kind: 3, ids: ids, blocks: bls}
		}
	}
	return ops
}

// playNetOps runs the sequence serially and returns every read payload in
// order. Serial submission means both sides see identical per-shard
// request subsequences, so the §5 determinism contract forces identical
// leaf traces if the layers in between add nothing.
func playNetOps(t *testing.T, api storeAPI, ops []netOp) [][]byte {
	t.Helper()
	return playNetOpsFrom(t, api, ops, 0)
}

// playNetOpsFrom plays a tail of a recorded sequence: base is the index
// of ops[0] in the full recording, so write payloads (derived from the
// global op index) match a reference run that played the whole sequence.
// The cluster differential test uses it to split one sequence around a
// live migration.
func playNetOpsFrom(t *testing.T, api storeAPI, ops []netOp, base int) [][]byte {
	t.Helper()
	var payloads [][]byte
	for i, op := range ops {
		i += base
		switch op.kind {
		case 0:
			data, err := api.Read(op.id)
			if err != nil {
				t.Fatalf("op %d read: %v", i, err)
			}
			payloads = append(payloads, data)
		case 1:
			if err := api.Write(op.id, block(byte(i))); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
		case 2:
			got, err := api.ReadBatch(op.ids)
			if err != nil {
				t.Fatalf("op %d readBatch: %v", i, err)
			}
			payloads = append(payloads, got...)
		default:
			if err := api.WriteBatch(op.ids, op.blocks); err != nil {
				t.Fatalf("op %d writeBatch: %v", i, err)
			}
		}
	}
	return payloads
}

// TestNetDifferentialEquivalence runs one recorded op sequence against an
// in-process ShardedStore and against an identically-seeded store behind
// Client → wire → netserve over a loopback socket, and demands the two
// paths be indistinguishable: byte-identical read payloads, identical
// service op counts, and identical per-shard leaf traces. Run under
// -race, this is also the concurrency audit of the whole network stack.
func TestNetDifferentialEquivalence(t *testing.T) {
	const blocks = 1 << 12
	const shards = 3
	cfg := ShardedStoreConfig{Blocks: blocks, Shards: shards, Seed: 77}
	ops := recordNetOps(blocks, 400)

	// In-process reference run.
	local, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range engines(local) {
		sh.EnableTrace()
	}
	wantPayloads := playNetOps(t, local, ops)
	wantStats := local.Stats()
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}

	// Network run: same store geometry behind a loopback server.
	remoteStore, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range engines(remoteStore) {
		sh.EnableTrace()
	}
	srv, err := NewServer(remoteStore, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Blocks() != blocks || cl.Shards() != shards {
		t.Fatalf("handshake geometry: %d blocks, %d shards", cl.Blocks(), cl.Shards())
	}
	gotPayloads := playNetOps(t, cl, ops)
	gotStats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	if err := remoteStore.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte-identical payloads, op for op.
	if len(gotPayloads) != len(wantPayloads) {
		t.Fatalf("network path returned %d read payloads, in-process %d", len(gotPayloads), len(wantPayloads))
	}
	for i := range wantPayloads {
		if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
			t.Fatalf("read payload %d diverged between in-process and network paths", i)
		}
	}
	// Identical service op counts (the Stats op itself is not counted).
	if gotStats.Reads != wantStats.Reads || gotStats.Writes != wantStats.Writes ||
		gotStats.DedupHits != wantStats.DedupHits {
		t.Fatalf("stats diverged: net %d/%d/%d, in-process %d/%d/%d",
			gotStats.Reads, gotStats.Writes, gotStats.DedupHits,
			wantStats.Reads, wantStats.Writes, wantStats.DedupHits)
	}
	// Identical per-shard engine traces: same ops, same order, same leaves.
	for i := range engines(local) {
		want, got := engines(local)[i].Trace(), engines(remoteStore)[i].Trace()
		if len(want.Ops) == 0 {
			t.Fatalf("shard %d served nothing", i)
		}
		if len(got.Ops) != len(want.Ops) {
			t.Fatalf("shard %d: net path served %d engine ops, in-process %d", i, len(got.Ops), len(want.Ops))
		}
		for j := range want.Ops {
			if got.Ops[j] != want.Ops[j] {
				t.Fatalf("shard %d: op %d diverged (%+v != %+v)", i, j, got.Ops[j], want.Ops[j])
			}
			if got.Leaves[j] != want.Leaves[j] {
				t.Fatalf("shard %d: leaf %d diverged (%d != %d)", i, j, got.Leaves[j], want.Leaves[j])
			}
		}
	}
}

// TestPipelinedVsSerialEquivalence is the serving path's determinism
// contract across storage engines: the same recorded op sequence (single
// ops, read batches with duplicates, write batches that reach each shard as
// one vector) through a ShardedStore over the memory engine and over every
// durable engine and cache setting must be indistinguishable —
// byte-identical read payloads, identical service op counts and dedup
// hits, and identical per-shard engine traces (same ops, same order, same
// exposed leaves). What an engine does with a put never reaches the
// protocol. (The tree-top budget's neutrality is the engine's contract:
// internal/oram TestTreeTopBytesNeutral.)
func TestPipelinedVsSerialEquivalence(t *testing.T) {
	const blocks = 1 << 12
	const shards = 3
	ops := recordNetOps(blocks, 400)

	play := func(engine string, slotCache int) (payloads [][]byte, stats ServiceStats, traces []*shard.Trace) {
		t.Helper()
		cfg := ShardedStoreConfig{
			Blocks: blocks, Shards: shards, Seed: 77, Engine: engine,
			CheckpointEvery: 32, GroupCommit: 4, SlotCacheBytes: slotCache,
		}
		if engine != BackendMemory {
			cfg.Dir = t.TempDir()
		}
		st, err := NewShardedStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range engines(st) {
			sh.EnableTrace()
		}
		payloads = playNetOps(t, st, ops)
		stats = st.Stats()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for _, sh := range engines(st) {
			traces = append(traces, sh.Trace())
		}
		return payloads, stats, traces
	}

	wantPayloads, wantStats, wantTraces := play(BackendMemory, 0)
	for _, tc := range []struct {
		engine    string
		slotCache int
	}{
		{BackendWAL, 0},
		{BackendBlockfile, 0},
		{BackendBlockfile, 4 << 10}, // tiny budget: CLOCK eviction churns mid-run
	} {
		name := fmt.Sprintf("engine=%s,slotCache=%d", tc.engine, tc.slotCache)
		gotPayloads, gotStats, gotTraces := play(tc.engine, tc.slotCache)

		if len(gotPayloads) != len(wantPayloads) {
			t.Fatalf("%s: returned %d read payloads, memory %d", name, len(gotPayloads), len(wantPayloads))
		}
		for i := range wantPayloads {
			if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
				t.Fatalf("%s: read payload %d diverged from the memory engine", name, i)
			}
		}
		if gotStats.Reads != wantStats.Reads || gotStats.Writes != wantStats.Writes ||
			gotStats.DedupHits != wantStats.DedupHits {
			t.Fatalf("%s: stats diverged: %d/%d/%d, memory %d/%d/%d",
				name, gotStats.Reads, gotStats.Writes, gotStats.DedupHits,
				wantStats.Reads, wantStats.Writes, wantStats.DedupHits)
		}
		for i := range wantTraces {
			want, got := wantTraces[i], gotTraces[i]
			if len(want.Ops) == 0 {
				t.Fatalf("shard %d served nothing", i)
			}
			if len(got.Ops) != len(want.Ops) {
				t.Fatalf("%s: shard %d served %d engine ops, memory %d", name, i, len(got.Ops), len(want.Ops))
			}
			for j := range want.Ops {
				if got.Ops[j] != want.Ops[j] {
					t.Fatalf("%s: shard %d: op %d diverged (%+v != %+v)", name, i, j, got.Ops[j], want.Ops[j])
				}
				if got.Leaves[j] != want.Leaves[j] {
					t.Fatalf("%s: shard %d: leaf %d diverged (%d != %d)", name, i, j, got.Leaves[j], want.Leaves[j])
				}
			}
		}
	}
}

// TestPipelinedDurableEquivalence extends the contract through the
// durable backends and across a restart: identical workloads (small
// CheckpointEvery and GroupCommit so compactions and commits fire mid-run)
// on every engine in {wal, blockfile} and slot-cache budget must leave directories that recover to identical stores — same payloads,
// same traffic counters, and identical engine behavior for a post-recovery
// op sequence. The engine may change what the bytes on disk look like,
// never what they mean.
func TestPipelinedDurableEquivalence(t *testing.T) {
	const blocks = 1 << 10
	run := func(engine string, slotCache int) (dir string) {
		t.Helper()
		dir = t.TempDir()
		st, err := NewStore(StoreConfig{
			Blocks: blocks, Engine: engine, Dir: dir, Seed: 9,
			CheckpointEvery: 32, GroupCommit: 4, SlotCacheBytes: slotCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(321)
		for i := 0; i < 300; i++ {
			id := r.Uint64n(blocks / 2)
			if r.Uint64n(3) == 0 {
				if _, err := st.Read(id); err != nil {
					t.Fatal(err)
				}
			} else if err := st.Write(id, block(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	reopen := func(dir, engine string, slotCache int) (rep TrafficReport, payloads [][]byte) {
		t.Helper()
		st, err := NewStore(StoreConfig{
			Blocks: blocks, Engine: engine, Dir: dir, Seed: 9, SlotCacheBytes: slotCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Post-recovery ops keep exercising the recovered engine state.
		for i := 0; i < 50; i++ {
			data, err := st.Read(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, data)
		}
		rep = st.Traffic()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return rep, payloads
	}

	baseDir := run(BackendWAL, 0)
	wantRep, wantPayloads := reopen(baseDir, BackendWAL, 0)
	for _, tc := range []struct {
		engine    string
		slotCache int
	}{
		{BackendBlockfile, 0},
		// Slot read cache on: the blockfile serves hot slots from memory.
		// Byte-identical payloads and protocol counters; only the
		// SlotCacheHits/Misses telemetry may be nonzero.
		{BackendBlockfile, 64 << 10},
		{BackendBlockfile, 4 << 10}, // tiny budget: CLOCK eviction churns mid-run
	} {
		engine := tc.engine
		name := fmt.Sprintf("engine=%s,slotCache=%d", engine, tc.slotCache)
		dir := run(engine, tc.slotCache)
		gotRep, gotPayloads := reopen(dir, engine, tc.slotCache)
		if tc.slotCache > 0 {
			// The cache is pure telemetry at the protocol level: zero the
			// counters for the struct compare, but demand the cache actually
			// served something (otherwise the row tests nothing).
			if gotRep.SlotCacheHits+gotRep.SlotCacheMisses == 0 {
				t.Fatalf("%s: slot cache enabled but never touched", name)
			}
			gotRep.SlotCacheHits, gotRep.SlotCacheMisses = 0, 0
		}
		if wantRep != gotRep {
			t.Fatalf("%s: recovered traffic diverged:\n wal baseline %+v\n got          %+v", name, wantRep, gotRep)
		}
		for i := range wantPayloads {
			if !bytes.Equal(wantPayloads[i], gotPayloads[i]) {
				t.Fatalf("%s: post-recovery read %d diverged from the WAL baseline", name, i)
			}
		}
		// Cross-recovery: a store at default knobs must be able to reopen
		// the directory (the on-disk contract is shared). Counters keep
		// growing across reopens, so compare the stable parts: the write
		// count and the logical payloads. Reopening a cache-written
		// directory with the cache off must be equally lossless: the cache
		// never touches the format.
		crossRep, crossPayloads := reopen(dir, engine, 0)
		if crossRep.Writes != wantRep.Writes {
			t.Fatalf("%s: cross-config recovery lost writes: want %d, got %d", name, wantRep.Writes, crossRep.Writes)
		}
		for i := range wantPayloads {
			if !bytes.Equal(wantPayloads[i], crossPayloads[i]) {
				t.Fatalf("%s: cross-config read %d diverged", name, i)
			}
		}
	}
}

// TestWriteBatchEqualsScalarWrites is the vector write's contract at the
// store boundary: WriteBatch hands each shard its writes as one run, which
// the shard seals and applies in order and delivers to its backend in
// vectors, and none of that may be observable. On every engine, a store
// taking WriteBatch calls — long sequential runs, duplicate ids inside a
// batch, reads of ids just written between batches, a CheckpointEvery that
// lands mid-vector — and a store taking the same writes one Write at a time
// expose the same leaves, count the same traffic and read back the same
// bytes; on the durable engines both recover, after Close and reopen, to
// the same state and counters and continue alike, and a directory written
// batched continues scalar the same way.
func TestWriteBatchEqualsScalarWrites(t *testing.T) {
	const blocks, shards = 1 << 11, 2
	type step struct {
		ids    []uint64
		blocks [][]byte
		reads  []uint64 // after the batch: ids it just wrote, and others
	}
	r := rng.New(4242)
	steps := make([]step, 24)
	for i := range steps {
		n := 1 + int(r.Uint64n(400))
		st := step{ids: make([]uint64, n), blocks: make([][]byte, n)}
		base := r.Uint64n(blocks - 400)
		for j := range st.ids {
			switch {
			case i%3 == 0:
				st.ids[j] = base + uint64(j) // a sequential run
			case j > 0 && r.Uint64n(4) == 0:
				st.ids[j] = st.ids[r.Uint64n(uint64(j))] // a duplicate inside the batch
			default:
				st.ids[j] = r.Uint64n(blocks)
			}
			st.blocks[j] = block(byte(i*31 + j))
		}
		for k := 0; k < 6; k++ {
			st.reads = append(st.reads, st.ids[r.Uint64n(uint64(n))], r.Uint64n(blocks))
		}
		steps[i] = st
	}

	type outcome struct {
		payloads [][]byte
		traces   []LeafTrace
		traffic  TrafficReport
	}
	// life opens a store, plays the steps batched or scalar, reads the whole
	// id space back, and closes it.
	life := func(engine, dir string, steps []step, batched bool) outcome {
		t.Helper()
		st, err := NewShardedStore(ShardedStoreConfig{
			Blocks: blocks, Shards: shards, Seed: 21, Engine: engine, Dir: dir,
			CheckpointEvery: 40, GroupCommit: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		st.EnableTraces()
		var out outcome
		for i, sp := range steps {
			if batched {
				if err := st.WriteBatch(sp.ids, sp.blocks); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			} else {
				for j, id := range sp.ids {
					if err := st.Write(id, sp.blocks[j]); err != nil {
						t.Fatalf("step %d write %d: %v", i, j, err)
					}
				}
			}
			for _, id := range sp.reads {
				data, err := st.Read(id)
				if err != nil {
					t.Fatalf("step %d read %d: %v", i, id, err)
				}
				out.payloads = append(out.payloads, data)
			}
		}
		for id := uint64(0); id < blocks; id += 7 {
			data, err := st.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			out.payloads = append(out.payloads, data)
		}
		out.traces, out.traffic = st.LeafTraces(), st.Traffic()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	same := func(name string, got, want outcome) {
		t.Helper()
		if got.traffic != want.traffic {
			t.Fatalf("%s: traffic diverged:\n batched %+v\n scalar  %+v", name, got.traffic, want.traffic)
		}
		if !reflect.DeepEqual(got.traces, want.traces) {
			t.Fatalf("%s: leaf traces diverged", name)
		}
		if !reflect.DeepEqual(got.payloads, want.payloads) {
			t.Fatalf("%s: read payloads diverged", name)
		}
	}

	same("memory", life(BackendMemory, "", steps, true), life(BackendMemory, "", steps, false))
	const cut = 14
	for _, engine := range []string{BackendWAL, BackendBlockfile} {
		batchedDir, scalarDir, crossDir := t.TempDir(), t.TempDir(), t.TempDir()
		want := life(engine, scalarDir, steps[:cut], false)
		same(engine+" first life", life(engine, batchedDir, steps[:cut], true), want)
		life(engine, crossDir, steps[:cut], true)
		// Second life: recovered state and counters, then more of the same.
		want = life(engine, scalarDir, steps[cut:], false)
		same(engine+" after reopen", life(engine, batchedDir, steps[cut:], true), want)
		same(engine+" written batched, continued scalar", life(engine, crossDir, steps[cut:], false), want)
	}
}

// TestWriteBatchLargerThanWALBatchLimit: one WriteBatch may route more ids
// to a WAL shard than the log's 65 536-record batch frame holds, because
// the shard delivers them in bounded vectors (periodic checkpoints, which
// also cut a vector short, are off). Every block is durable after Close and
// reopen.
func TestWriteBatchLargerThanWALBatchLimit(t *testing.T) {
	const n = 70000
	dir := t.TempDir()
	open := func() *ShardedStore {
		t.Helper()
		st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 17, Shards: 1, Engine: BackendWAL, Dir: dir, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	payload := func(id uint64) []byte {
		b := block(byte(id))
		b[1], b[2] = byte(id>>8), byte(id>>16)
		return b
	}
	ids, blocks := make([]uint64, n), make([][]byte, n)
	for i := range ids {
		ids[i] = uint64(i)
		blocks[i] = payload(ids[i])
	}
	st := open()
	if err := st.WriteBatch(ids, blocks); err != nil {
		t.Fatalf("a %d-id WriteBatch to one WAL shard: %v", n, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open()
	defer st.Close()
	for lo := 0; lo < n; lo += 500 {
		got, err := st.ReadBatch(ids[lo:min(lo+500, n)])
		if err != nil {
			t.Fatal(err)
		}
		for i, data := range got {
			if !bytes.Equal(data, blocks[lo+i]) {
				t.Fatalf("block %d lost its payload across Close and reopen", lo+i)
			}
		}
	}
}

// TestDurableMixedConfigReopen: the durable format is config-neutral. A
// blockfile directory written with the slot read cache on must reopen
// bit-exact with the cache off or at another budget — same recovered
// engine behavior for a post-recovery op sequence — because the cache
// holds only copies of committed ciphertext and never touches the format.
func TestDurableMixedConfigReopen(t *testing.T) {
	const blocks = 1 << 10
	r := rng.New(77)
	wrote := make(map[uint64]byte)
	for i := 0; i < 300; i++ {
		wrote[r.Uint64n(blocks)] = byte(i)
	}
	bfDir := t.TempDir()
	bfReopen := func(slotCache int, stamp bool) [][]byte {
		t.Helper()
		st, err := NewShardedStore(ShardedStoreConfig{
			Blocks: blocks, Shards: 2, Seed: 13,
			Engine: BackendBlockfile, Dir: bfDir, CheckpointEvery: 32, GroupCommit: 4,
			SlotCacheBytes: slotCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stamp {
			for id, b := range wrote {
				if err := st.Write(id, block(b)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var payloads [][]byte
		for i := uint64(0); i < 64; i++ {
			data, err := st.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, data)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return payloads
	}
	bfWant := bfReopen(64<<10, true) // written with cache on
	for _, slotCache := range []int{0, 64 << 10, 4 << 10} {
		got := bfReopen(slotCache, false)
		for i := range bfWant {
			if !bytes.Equal(got[i], bfWant[i]) {
				t.Fatalf("blockfile slotCache=%d: post-recovery read %d diverged", slotCache, i)
			}
		}
	}
}

// TestDifferentialTrafficDiversity sanity-checks that the engines really
// are different designs: their total traffic for the same op sequence must
// differ (otherwise the equivalence test proves nothing).
func TestDifferentialTrafficDiversity(t *testing.T) {
	const lines = 1 << 13
	engines := allEngines(t, lines)
	r := rng.New(7)
	traffic := make(map[string]int)
	for name, e := range engines {
		total := 0
		rr := rng.New(7)
		_ = r
		for i := 0; i < 300; i++ {
			p := e.Access(rr.Uint64n(lines), false, 0)
			total += p.Reads() + p.Writes()
		}
		traffic[name] = total
	}
	seen := map[int]string{}
	distinct := 0
	for name, tr := range traffic {
		if _, dup := seen[tr]; !dup {
			distinct++
		}
		seen[tr] = name
	}
	if distinct < 4 {
		t.Fatalf("only %d distinct traffic profiles across engines: %v", distinct, traffic)
	}
}
