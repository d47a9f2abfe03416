package palermo

// Cluster-layer tests: the multi-node serving path (ClusterClient →
// placement routing → per-node wire → ClusterNode) must be
// indistinguishable from one in-process ShardedStore — byte for byte,
// count for count, and leaf for leaf — including across a live shard
// migration, whose exact-state handoff makes the migrated shard's
// protocol history the concatenation of the source's trace prefix and
// the target's suffix. Run under -race these are also the concurrency
// audit of the scatter/gather client and the migration barrier.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palermo/internal/cluster"
	"palermo/internal/serve"
	"palermo/internal/wire"
)

// testClusterNode is one running node of a test cluster.
type testClusterNode struct {
	addr string
	node *ClusterNode
	srv  *Server
	done chan error
}

func (tn *testClusterNode) stop(t *testing.T) {
	t.Helper()
	if err := tn.srv.Close(); err != nil {
		t.Fatalf("node %s: server close: %v", tn.addr, err)
	}
	if err := <-tn.done; err != ErrServerClosed {
		t.Fatalf("node %s: serve: %v", tn.addr, err)
	}
	if err := tn.node.Close(); err != nil {
		t.Fatalf("node %s: node close: %v", tn.addr, err)
	}
}

// startClusterPair boots a two-node cluster over loopback: listeners are
// bound first so their concrete addresses can be written into the
// manifest, then each node loads the manifest and serves its ranges.
func startClusterPair(t *testing.T, cfg ShardedStoreConfig, trace bool) (*testClusterNode, *testClusterNode) {
	t.Helper()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	man, err := cluster.EvenSplit(cfg.Blocks, uint32(cfg.Shards), addrs)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*testClusterNode, 2)
	for i := range nodes {
		node, err := NewClusterNode(ClusterNodeConfig{Addr: addrs[i], Store: cfg}, man)
		if err != nil {
			t.Fatalf("node %s: %v", addrs[i], err)
		}
		if trace {
			node.EnableTraces()
		}
		srv, err := NewClusterServer(node, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func(srv *Server, ln net.Listener) { done <- srv.Serve(ln) }(srv, lns[i])
		nodes[i] = &testClusterNode{addr: addrs[i], node: node, srv: srv, done: done}
	}
	return nodes[0], nodes[1]
}

// clusterLeafTraces concatenates both nodes' traces per shard, source
// node first: for a shard migrated a→b, a's retired trace is the prefix
// of the shard's protocol history and b's live trace the suffix.
func clusterLeafTraces(a, b *testClusterNode) map[int][]uint64 {
	out := make(map[int][]uint64)
	for _, traces := range [][]LeafTrace{a.node.LeafTraces(), b.node.LeafTraces()} {
		for _, tr := range traces {
			if len(tr.Leaves) > 0 {
				out[tr.Shard] = append(out[tr.Shard], tr.Leaves...)
			}
		}
	}
	return out
}

// TestClusterDifferentialEquivalence runs one recorded op sequence
// against an in-process ShardedStore and against a two-node cluster
// behind ClusterClient, and demands the paths be indistinguishable:
// byte-identical read payloads, identical service op counts, identical
// engine traffic, and element-wise identical per-shard leaf traces. The
// migration subtest additionally moves shard 0 to the other node midway
// through the sequence — the client rides out the epoch bump
// transparently, and the migrated shard's concatenated source+target
// trace must still equal the single-store reference, which is the
// end-to-end proof that migration hands over exact protocol state.
func TestClusterDifferentialEquivalence(t *testing.T) {
	const blocks = 1 << 12
	const shards = 3
	cfg := ShardedStoreConfig{Blocks: blocks, Shards: shards, Seed: 77}
	ops := recordNetOps(blocks, 400)

	// In-process reference run.
	local, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local.EnableTraces()
	wantPayloads := playNetOps(t, local, ops)
	wantStats := local.Stats()
	wantTraffic := local.Traffic()
	wantTraces := local.LeafTraces()
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, nodeCfg ShardedStoreConfig, migrateAt int) {
		a, b := startClusterPair(t, nodeCfg, true)
		defer b.stop(t)
		defer a.stop(t)
		cc, err := DialCluster([]string{a.addr, b.addr}, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		if cc.Blocks() != blocks || cc.Shards() != shards || cc.Epoch() != 1 {
			t.Fatalf("cluster geometry: %d blocks, %d shards, epoch %d", cc.Blocks(), cc.Shards(), cc.Epoch())
		}
		var gotPayloads [][]byte
		if migrateAt < 0 {
			gotPayloads = playNetOps(t, cc, ops)
		} else {
			gotPayloads = playNetOps(t, cc, ops[:migrateAt])
			// Live migration mid-sequence: shard 0 moves a → b while the
			// client still routes by the epoch-1 manifest.
			if err := a.node.Migrate(0, b.addr); err != nil {
				t.Fatalf("migrate shard 0: %v", err)
			}
			if got := a.node.Epoch(); got != 2 {
				t.Fatalf("source epoch after migration = %d, want 2", got)
			}
			gotPayloads = append(gotPayloads, playNetOpsFrom(t, cc, ops[migrateAt:], migrateAt)...)
			if got := cc.Epoch(); got != 2 {
				t.Fatalf("client epoch after riding out the migration = %d, want 2", got)
			}
		}
		gotStats, gotTraffic, err := cc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		if len(gotPayloads) != len(wantPayloads) {
			t.Fatalf("cluster path returned %d read payloads, in-process %d", len(gotPayloads), len(wantPayloads))
		}
		for i := range wantPayloads {
			if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
				t.Fatalf("read payload %d diverged between in-process and cluster paths", i)
			}
		}
		if gotStats.Reads != wantStats.Reads || gotStats.Writes != wantStats.Writes ||
			gotStats.DedupHits != wantStats.DedupHits {
			t.Fatalf("stats diverged: cluster %d/%d/%d, in-process %d/%d/%d",
				gotStats.Reads, gotStats.Writes, gotStats.DedupHits,
				wantStats.Reads, wantStats.Writes, wantStats.DedupHits)
		}
		if gotTraffic.Reads != wantTraffic.Reads || gotTraffic.Writes != wantTraffic.Writes ||
			gotTraffic.DRAMReads != wantTraffic.DRAMReads || gotTraffic.DRAMWrites != wantTraffic.DRAMWrites {
			t.Fatalf("engine traffic diverged: cluster %+v, in-process %+v", gotTraffic, wantTraffic)
		}
		gotTraces := clusterLeafTraces(a, b)
		for _, want := range wantTraces {
			got := gotTraces[want.Shard]
			if len(want.Leaves) == 0 {
				t.Fatalf("shard %d served nothing in the reference run", want.Shard)
			}
			if len(got) != len(want.Leaves) {
				t.Fatalf("shard %d: cluster exposed %d leaves, in-process %d", want.Shard, len(got), len(want.Leaves))
			}
			for j := range want.Leaves {
				if got[j] != want.Leaves[j] {
					t.Fatalf("shard %d: leaf %d diverged (%d != %d)", want.Shard, j, got[j], want.Leaves[j])
				}
			}
		}
	}

	t.Run("static", func(t *testing.T) { run(t, cfg, -1) })
	t.Run("migration", func(t *testing.T) { run(t, cfg, 200) })
}

// TestClusterPartialShed: one node drowning (an admission deadline no
// queued request can meet) while its peer serves normally. Ops routed to
// the shedding node must come back ErrRetry through the scatter/gather
// path — a shed is a retry-later signal, not a reroute, so the client
// must NOT burn its wrong-epoch retry on it — while ops confined to the
// healthy node succeed, and the cluster-wide snapshot aggregates the
// shed count.
func TestClusterPartialShed(t *testing.T) {
	const blocks = 1 << 12
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	man, err := cluster.EvenSplit(blocks, 2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 sheds everything; node 1 is healthy. Same Seed/Key on both,
	// as the cluster contract requires.
	cfgs := []ShardedStoreConfig{
		{Blocks: blocks, Shards: 2, Seed: 4, AdmissionDeadline: 1},
		{Blocks: blocks, Shards: 2, Seed: 4},
	}
	nodes := make([]*testClusterNode, 2)
	for i := range nodes {
		node, err := NewClusterNode(ClusterNodeConfig{Addr: addrs[i], Store: cfgs[i]}, man)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewClusterServer(node, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func(srv *Server, ln net.Listener) { done <- srv.Serve(ln) }(srv, lns[i])
		nodes[i] = &testClusterNode{addr: addrs[i], node: node, srv: srv, done: done}
	}
	defer nodes[1].stop(t)
	defer nodes[0].stop(t)
	cc, err := DialCluster(addrs, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// Striped placement: even ids live on node 0 (shedding), odd on node 1.
	if err := cc.Write(0, block(0x11)); !errors.Is(err, ErrRetry) {
		t.Fatalf("write to shedding node = %v, want ErrRetry", err)
	}
	if err := cc.Write(1, block(0x22)); err != nil {
		t.Fatalf("write to healthy node failed: %v", err)
	}
	// A batch spanning both nodes: the shed partition poisons the gather.
	if _, err := cc.ReadBatch([]uint64{0, 1}); !errors.Is(err, ErrRetry) {
		t.Fatalf("spanning batch = %v, want ErrRetry", err)
	}
	// Confined to the healthy node, the batch both succeeds and returns
	// the committed payload — partial sheds elsewhere corrupt nothing.
	got, err := cc.ReadBatch([]uint64{1, 3})
	if err != nil {
		t.Fatalf("healthy-only batch: %v", err)
	}
	if !bytes.Equal(got[0], block(0x22)) {
		t.Fatal("healthy partition returned wrong payload after partial shed")
	}
	// The cluster snapshot carries the shedding node's count.
	st, _, err := cc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sheds < 2 {
		t.Fatalf("cluster snapshot aggregated %d sheds, want >= 2", st.Sheds)
	}
}

// TestClusterSnapshotPoolsNodeHistograms: the cluster snapshot is exact.
// The two nodes serve differently shaped load — node 0 even ids in
// 32-wide read batches, node 1 odd ids one read or write at a time — so
// their latency distributions differ, and once both are quiet the four
// summaries ClusterClient.Snapshot reports must be those of both nodes'
// histograms pooled in-process, not a blend of per-node summaries.
func TestClusterSnapshotPoolsNodeHistograms(t *testing.T) {
	a, b := startClusterPair(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 2, Seed: 6}, false)
	defer b.stop(t)
	defer a.stop(t)
	cc, err := DialCluster([]string{a.addr, b.addr}, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		ids := make([]uint64, 32)
		for r := range 20 {
			for i := range ids {
				ids[i] = uint64(2 * (r*32 + i)) // even: node 0
			}
			if _, err := cc.ReadBatch(ids); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := range uint64(300) {
			id := 2*i + 1 // odd: node 1
			err := cc.Write(id, block(byte(i)))
			if err == nil {
				_, err = cc.Read(id)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, _, err := cc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.node.ServiceStats(), b.node.ServiceStats()
	if sa.ReadLat.P50Us == sb.ReadLat.P50Us {
		t.Fatalf("the nodes' read p50s match (%v µs): the load did not separate their distributions", sa.ReadLat.P50Us)
	}
	want := serve.Merge(sa, sb)
	if got.Reads != 940 || got.Writes != 300 || got.Reads != want.Reads || got.Writes != want.Writes {
		t.Fatalf("cluster counted %d reads, %d writes; nodes %d, %d; want 940, 300", got.Reads, got.Writes, want.Reads, want.Writes)
	}
	for _, c := range []struct {
		name      string
		got, want LatencySummary
	}{
		{"read", got.ReadLat, want.ReadLat},
		{"write", got.WriteLat, want.WriteLat},
		{"queue", got.QueueLat, want.QueueLat},
		{"exec", got.ExecLat, want.ExecLat},
	} {
		if c.got != c.want {
			t.Errorf("%s: cluster snapshot %+v, pooled node histograms %+v", c.name, c.got, c.want)
		}
	}
}

// TestClusterWrongEpochReroute pins the staleness contract: after a
// migration, a client still routing by the old manifest gets its frame
// rejected whole with a wrong-epoch status (nothing executed), while the
// cluster client refetches and re-routes transparently with every
// operation executing exactly once — counts prove no loss or duplication.
// A committed migration costs the stale client no backoff, and a write
// batch re-routes only the frame that was rejected.
func TestClusterWrongEpochReroute(t *testing.T) {
	const blocks = 1 << 12
	const shards = 3
	cfg := ShardedStoreConfig{Blocks: blocks, Shards: shards, Seed: 9}
	a, b := startClusterPair(t, cfg, false)
	defer b.stop(t)
	defer a.stop(t)

	// Two cluster clients dialed before the migration (stale manifest) and
	// a plain client pinned to the source node.
	cc, err := DialCluster([]string{a.addr, b.addr}, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc2, err := DialCluster([]string{a.addr, b.addr}, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc2.Close()
	direct, err := Dial(a.addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	// Shard-0 ids (id mod 3 == 0), written pre-migration through the
	// cluster client: 4 writes.
	ids := []uint64{0, 3, 6, 9}
	for i, id := range ids {
		if err := cc.Write(id, block(byte(0xA0+i))); err != nil {
			t.Fatalf("write %d: %v", id, err)
		}
	}

	// A frame for a shard the node does not own is rejected typed, both
	// before and after the migration flips ownership.
	directB, err := Dial(b.addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer directB.Close()
	if _, err := directB.Read(0); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("read of unowned shard on target = %v, want ErrWrongEpoch", err)
	}

	// A stream of pipelined single-block reads of shard 0 on the source,
	// kept up across the whole cutover.
	stream := startShardStream(t, a.addr, ids)

	if err := a.node.Migrate(0, b.addr); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// Every streamed frame either completed on the source ahead of the
	// cutover barrier or was answered wrong-epoch; the accounting below
	// shows the rejected ones executed nothing.
	streamed := stream.stop(t)
	if streamed == 0 {
		t.Fatal("no streamed read completed before the cutover; the stream tested nothing")
	}

	// The source now rejects shard 0 — whole frame, nothing executed.
	if _, err := direct.Read(0); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("stale read on source = %v, want ErrWrongEpoch", err)
	}
	// A batch of the migrated shard through the stale-manifest cluster
	// client: the source rejects it, and the refresh finds the committed
	// epoch-2 manifest, so it re-routes at once — a backoff is only for a
	// cutover still in flight.
	start := time.Now()
	got, err := cc.ReadBatch(ids)
	if err != nil {
		t.Fatalf("post-migration batch through stale client: %v", err)
	}
	if took := time.Since(start); took >= wrongEpochBackoff {
		t.Fatalf("stale client took %v to re-route after a committed migration, want under the %v backoff", took, wrongEpochBackoff)
	}
	for i, id := range ids {
		if want := block(byte(0xA0 + i)); !bytes.Equal(got[i], want) {
			t.Fatalf("block %d diverged after migration", id)
		}
	}
	if got := cc.Epoch(); got != 2 {
		t.Fatalf("client epoch after re-route = %d, want 2", got)
	}

	// A write batch through the second stale client spanning the migrated
	// shard 0 and the kept shards 1 (still on a) and 2 (on b): b's frame
	// executes at once, a's is rejected whole and re-routed by shard.
	wids := []uint64{12, 13, 14, 15, 16, 17}
	wblocks := make([][]byte, len(wids))
	for i := range wblocks {
		wblocks[i] = block(byte(0xC0 + i))
	}
	if err := cc2.WriteBatch(wids, wblocks); err != nil {
		t.Fatalf("post-migration write batch through stale client: %v", err)
	}

	// Exactly-once accounting: 4 + 6 writes and 4 reads total across the
	// cluster, plus the streamed reads the source answered OK — the
	// wrong-epoch rejections and retries adding nothing.
	ss, _, err := cc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if wantW := uint64(len(ids) + len(wids)); ss.Writes != wantW || ss.Reads != uint64(len(ids))+streamed {
		t.Fatalf("cluster served %d writes / %d reads, want %d / %d (lost or duplicated ops)",
			ss.Writes, ss.Reads, wantW, uint64(len(ids))+streamed)
	}
	got, err = cc2.ReadBatch(wids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range wids {
		if !bytes.Equal(got[i], wblocks[i]) {
			t.Fatalf("block %d of the re-routed write batch reads back wrong", id)
		}
	}
}

// TestClusterConcurrentMigration drives one cluster client from several
// goroutines while a shard migrates under them: every scatter reads the
// route table while a refresh replaces it, and stale frames re-route while
// others are in flight. Every operation still executes exactly once: each
// caller reads back what it wrote, and the cluster's counts equal the
// operations issued. Under -race this audits the gather's sharing.
func TestClusterConcurrentMigration(t *testing.T) {
	a, b := startClusterPair(t, ShardedStoreConfig{Blocks: 1 << 12, Shards: 3, Seed: 3}, false)
	defer b.stop(t)
	defer a.stop(t)
	cc, err := DialCluster([]string{a.addr, b.addr}, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	const callers = 4
	var rounds, reads, writes atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Caller c owns ids c, c+4, ..., c+20, which span all three shards.
			ids := make([]uint64, 6)
			blocks := make([][]byte, len(ids))
			for i := range ids {
				ids[i] = uint64(c + i*callers)
			}
			for round := 0; ; round++ {
				for i := range blocks {
					blocks[i] = block(byte(c<<6 + round + i))
				}
				if err := cc.WriteBatch(ids, blocks); err != nil {
					t.Errorf("caller %d: write batch: %v", c, err)
					return
				}
				got, err := cc.ReadBatch(ids)
				if err != nil {
					t.Errorf("caller %d: read batch: %v", c, err)
					return
				}
				one, err := cc.Read(ids[round%len(ids)])
				if err != nil {
					t.Errorf("caller %d: read: %v", c, err)
					return
				}
				for i := range ids {
					if !bytes.Equal(got[i], blocks[i]) {
						t.Errorf("caller %d: block %d reads back wrong in round %d", c, ids[i], round)
						return
					}
				}
				if !bytes.Equal(one, blocks[round%len(ids)]) {
					t.Errorf("caller %d: single read of block %d wrong in round %d", c, ids[round%len(ids)], round)
					return
				}
				writes.Add(uint64(len(ids)))
				reads.Add(uint64(len(ids)) + 1)
				rounds.Add(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	waitRounds := func(n uint64) {
		for deadline := time.Now().Add(10 * time.Second); rounds.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the callers stopped making progress")
				return
			}
		}
	}
	waitRounds(callers)
	if err := a.node.Migrate(0, b.addr); err != nil {
		t.Errorf("migrate: %v", err)
	}
	waitRounds(rounds.Load() + 2*callers)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := cc.Epoch(); got != 2 {
		t.Fatalf("client epoch after the migration = %d, want 2", got)
	}
	ss, _, err := cc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Writes != writes.Load() || ss.Reads != reads.Load() {
		t.Fatalf("cluster served %d writes / %d reads, callers issued %d / %d (lost or duplicated ops)",
			ss.Writes, ss.Reads, writes.Load(), reads.Load())
	}
}

// TestClusterBatchAllocs guards the allocation budget of the cluster
// client over two one-shard nodes, counted like TestClientReadAllocs
// across client, wire, servers and stores together. A batch costs its two
// node frames plus the gather's flat per-call arrays (the goroutine-per-
// group scatter made 75 for the ReadBatch row and 88 for the WriteBatch);
// a single op costs exactly what a direct Client.Read to its node does.
// Last measured: ReadBatch(16) 44, WriteBatch(16) 38, Read 4.
func TestClusterBatchAllocs(t *testing.T) {
	a, b := startClusterPair(t, ShardedStoreConfig{Blocks: 1 << 10, Shards: 2}, false)
	defer b.stop(t)
	defer a.stop(t)
	cc, err := DialCluster([]string{a.addr, b.addr}, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	direct, err := Dial(a.addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	// Even ids live on node a, odd ids on node b.
	ids := make([]uint64, 16)
	blocks := make([][]byte, len(ids))
	for i := range ids {
		ids[i], blocks[i] = uint64(i), block(byte(i))
	}
	// Allocations per op, counted over runs of ten ops: the race detector
	// drops a random share of sync.Pool puts, and a count rounded down per
	// run of one op would flip between neighbouring integers.
	allocs := func(op func() error) float64 {
		run := func() {
			for i := 0; i < 10; i++ {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 50; i++ {
			run()
		}
		return testing.AllocsPerRun(100, run) / 10
	}
	readBatch := allocs(func() error { _, err := cc.ReadBatch(ids); return err })
	writeBatch := allocs(func() error { return cc.WriteBatch(ids, blocks) })
	read := allocs(func() error { _, err := cc.Read(2); return err })
	directRead := allocs(func() error { _, err := direct.Read(2); return err })
	t.Logf("allocations: ReadBatch(16) %.1f, WriteBatch(16) %.1f, Read %.1f, direct Client.Read %.1f",
		readBatch, writeBatch, read, directRead)
	if readBatch > 60 {
		t.Errorf("ClusterClient.ReadBatch(16) allocates %.1f times, ceiling 60", readBatch)
	}
	if writeBatch > 50 {
		t.Errorf("ClusterClient.WriteBatch(16) allocates %.1f times, ceiling 50", writeBatch)
	}
	if read > directRead+0.5 {
		t.Errorf("ClusterClient.Read allocates %.1f times, a direct Client.Read %.1f", read, directRead)
	}
}

// shardStream keeps a window of pipelined single-block read frames in
// flight on one raw connection to a node — the asynchronous request path,
// with no client in between to retry or re-route.
type shardStream struct {
	nc      net.Conn
	quit    chan struct{}
	results chan error    // the reader's verdict
	served  chan struct{} // closed at the first frame answered StatusOK
	ok      uint64        // frames answered StatusOK (valid after results)
}

// streamEnd marks the request id of the Stats frame the writer ends the
// stream with; the id's low bits carry how many reads it sent.
const streamEnd = 1 << 63

func startShardStream(t *testing.T, addr string, ids []uint64) *shardStream {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := &shardStream{nc: nc, quit: make(chan struct{}), results: make(chan error, 1), served: make(chan struct{})}
	window := make(chan struct{}, 32)
	go func() { // writer: request i reads ids[i % len(ids)]
		for n := uint64(0); ; n++ {
			select {
			case window <- struct{}{}:
			case <-s.quit:
				wire.WriteFrame(nc, wire.OpStats, streamEnd|n, nil)
				return
			}
			if wire.WriteFrame(nc, wire.OpRead, n, wire.AppendReadReq(nil, ids[n%uint64(len(ids))])) != nil {
				return
			}
		}
	}()
	go func() { // reader: until every read the writer sent is answered
		answered, sent, firstRejected := uint64(0), uint64(streamEnd), uint64(streamEnd)
		for answered != sent {
			f, err := wire.ReadFrame(nc)
			if err != nil {
				s.results <- err
				return
			}
			if f.ReqID&streamEnd != 0 {
				sent = f.ReqID &^ streamEnd
				continue
			}
			<-window
			answered++
			status, body, msg, err := wire.ParseResp(f.Payload)
			switch {
			case err != nil:
				s.results <- err
				return
			case status == wire.StatusOK:
				// Requests reach the shard in order, so none can execute
				// after one that was rejected.
				if f.ReqID > firstRejected {
					s.results <- fmt.Errorf("request %d executed after request %d was rejected wrong-epoch", f.ReqID, firstRejected)
					return
				}
				if want := block(byte(0xA0 + f.ReqID%uint64(len(ids)))); !bytes.Equal(body, want) {
					s.results <- fmt.Errorf("request %d read a wrong payload", f.ReqID)
					return
				}
				if s.ok++; s.ok == 1 {
					close(s.served)
				}
			case status == wire.StatusWrongEpoch:
				firstRejected = min(firstRejected, f.ReqID)
			default:
				s.results <- fmt.Errorf("request %d answered status %d (%s): neither completed nor rejected wrong-epoch", f.ReqID, status, msg)
				return
			}
		}
		s.results <- nil
	}()
	// The stream is up once a read has been served; a caller that cuts the
	// shard over right away would otherwise race the first frame.
	select {
	case <-s.served:
	case err := <-s.results:
		t.Fatalf("shard stream: %v", err)
	}
	return s
}

// stop ends the stream, waits for every frame sent to be answered and
// returns how many the node answered OK.
func (s *shardStream) stop(t *testing.T) uint64 {
	t.Helper()
	close(s.quit)
	err := <-s.results
	s.nc.Close()
	if err != nil {
		t.Fatalf("shard stream: %v", err)
	}
	return s.ok
}

// TestClientRedialRejectsEpochBump extends the redial-handshake
// regression (TestClientRedialRefreshesHandshake) to the cluster's
// geometry epoch: a plain Client pins the epoch at Dial, so a redial
// against a node whose placement has since moved must fail loudly as a
// geometry change instead of silently adapting to the new placement.
func TestClientRedialRejectsEpochBump(t *testing.T) {
	const blocks = 1 << 12
	cfg := ShardedStoreConfig{Blocks: blocks, Shards: 3, Seed: 5}
	a, b := startClusterPair(t, cfg, false)
	defer b.stop(t)

	cl, err := Dial(a.addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Epoch() != 1 {
		t.Fatalf("handshake epoch = %d, want 1", cl.Epoch())
	}
	// Shard 1 stays on node a across the migration; id 1 lives there.
	if err := cl.Write(1, block(0xEE)); err != nil {
		t.Fatal(err)
	}
	if err := a.node.Migrate(0, b.addr); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// The live connection keeps serving still-owned shards (ownership is
	// checked per frame, not per connection).
	if _, err := cl.Read(1); err != nil {
		t.Fatalf("read of kept shard after epoch bump: %v", err)
	}

	// Bounce the node's listener: the client's next op redials and repeats
	// the handshake, which now reports epoch 2 against the pinned 1.
	if err := a.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-a.done; err != ErrServerClosed {
		t.Fatal(err)
	}
	cc := cl.slots[0].cur.Load()
	select {
	case <-cc.readerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("client never noticed the server going away")
	}
	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewClusterServer(a.node, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln) }()
	defer func() {
		srv2.Close()
		<-done2
		a.node.Close()
	}()
	_, err = cl.Read(1)
	if err == nil || !strings.Contains(err.Error(), "geometry changed") || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("epoch bump not rejected on redial: %v", err)
	}
}
