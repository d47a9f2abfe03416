package palermo

// Durable cluster-node restart: the one ClusterNode path no Go test drove
// (only CI shell steps open a node over a Dir). A node that committed a
// placement flip must restart into it — not into the stale manifest file
// it is handed — with its blocks, its engine counters and its directory
// identity intact, and a shard must be able to migrate back onto a node
// whose directory still holds the subdirectory of its earlier ownership.

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"

	"palermo/internal/cluster"
)

// startDurableNode boots one cluster node over its own store directory on
// a fixed address (a restart must come back under the same manifest
// identity, so the listener is rebound to addr).
func startDurableNode(t *testing.T, addr string, cfg ShardedStoreConfig, man *cluster.Manifest) *testClusterNode {
	t.Helper()
	node, err := NewClusterNode(ClusterNodeConfig{Addr: addr, Store: cfg}, man)
	if err != nil {
		t.Fatalf("node %s: %v", addr, err)
	}
	srv, err := NewClusterServer(node, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return &testClusterNode{addr: addr, node: node, srv: srv, done: done}
}

func TestClusterNodeDurableRestart(t *testing.T) {
	for _, engine := range []string{BackendWAL, BackendBlockfile} {
		t.Run(engine, func(t *testing.T) { testClusterNodeDurableRestart(t, engine) })
	}
}

func testClusterNodeDurableRestart(t *testing.T, engine string) {
	const blocks = 1 << 10
	const shards = 4
	const stored = 192 // ids 0..191: 48 blocks in each of the four shards

	// Reserve two loopback addresses; they are the nodes' identities for
	// every life of the cluster.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	stale, err := cluster.EvenSplit(blocks, shards, addrs) // epoch 1: a = {0,1}, b = {2,3}
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ShardedStoreConfig, 2)
	for i := range cfgs {
		cfgs[i] = ShardedStoreConfig{Seed: 21, Engine: engine, Dir: t.TempDir()}
	}
	payload := func(id uint64, gen byte) []byte { return block(byte(id)*3 + gen) }
	boot := func() (a, b *testClusterNode, cc *ClusterClient) {
		t.Helper()
		a = startDurableNode(t, addrs[0], cfgs[0], stale)
		b = startDurableNode(t, addrs[1], cfgs[1], stale)
		cc, err := DialCluster(addrs, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return a, b, cc
	}
	verify := func(cc *ClusterClient, gen byte, when string) {
		t.Helper()
		ids := make([]uint64, stored)
		for i := range ids {
			ids[i] = uint64(i)
		}
		got, err := cc.ReadBatch(ids)
		if err != nil {
			t.Fatalf("%s: read back: %v", when, err)
		}
		for i, id := range ids {
			if !bytes.Equal(got[i], payload(id, gen)) {
				t.Fatalf("%s: block %d diverged", when, id)
			}
		}
	}
	wantOwned := func(tn *testClusterNode, epoch uint64, owned []int, when string) {
		t.Helper()
		if got := tn.node.Epoch(); got != epoch {
			t.Fatalf("%s: node %s at epoch %d, want %d", when, tn.addr, got, epoch)
		}
		if got := tn.node.OwnedShards(); !reflect.DeepEqual(got, owned) {
			t.Fatalf("%s: node %s owns %v, want %v", when, tn.addr, got, owned)
		}
	}

	// First life: write the block set, migrate shard 0 a → b, close cleanly.
	a, b, cc := boot()
	for id := uint64(0); id < stored; id++ {
		if err := cc.Write(id, payload(id, 1)); err != nil {
			t.Fatalf("write %d: %v", id, err)
		}
	}
	if err := a.node.Migrate(0, b.addr); err != nil {
		t.Fatalf("migrate shard 0 a→b: %v", err)
	}
	verify(cc, 1, "after first migration")
	wantOwned(a, 2, []int{1}, "after first migration")
	wantOwned(b, 2, []int{0, 2, 3}, "after first migration")
	beforeA, beforeB := a.node.Traffic(), b.node.Traffic()
	if beforeA.Writes == 0 || beforeB.Writes <= beforeA.Writes {
		t.Fatalf("first-life traffic implausible: a %+v, b %+v", beforeA, beforeB)
	}
	cc.Close()
	a.stop(t)
	b.stop(t)

	// A directory is one node's: another address must be refused, whatever
	// manifest it brings.
	_, err = NewClusterNode(ClusterNodeConfig{Addr: addrs[1], Store: cfgs[0]}, stale)
	if err == nil || !strings.Contains(err.Error(), "belongs to node") {
		t.Fatalf("directory of %s opened as %s: %v", addrs[0], addrs[1], err)
	}

	// Second life, booted from the STALE epoch-1 manifest: each node's
	// persisted state supersedes it.
	a, b, cc = boot()
	wantOwned(a, 2, []int{1}, "after restart")
	wantOwned(b, 2, []int{0, 2, 3}, "after restart")
	if got := cc.Epoch(); got != 2 {
		t.Fatalf("client handshake after restart at epoch %d, want 2", got)
	}
	// Engine counters are part of the recovered state: they continue.
	for _, c := range []struct {
		tn     *testClusterNode
		before TrafficReport
	}{{a, beforeA}, {b, beforeB}} {
		got := c.tn.node.Traffic()
		if got.Reads != c.before.Reads || got.Writes != c.before.Writes ||
			got.DRAMReads != c.before.DRAMReads || got.DRAMWrites != c.before.DRAMWrites {
			t.Fatalf("node %s counters restarted: recovered %+v, closed with %+v", c.tn.addr, got, c.before)
		}
	}
	verify(cc, 1, "after restart")

	// Migrate shard 0 BACK onto a, whose directory still holds the
	// subdirectory of its first ownership: the import must replace it.
	for id := uint64(0); id < stored; id++ {
		if err := cc.Write(id, payload(id, 2)); err != nil {
			t.Fatalf("rewrite %d: %v", id, err)
		}
	}
	if err := b.node.Migrate(0, a.addr); err != nil {
		t.Fatalf("migrate shard 0 b→a: %v", err)
	}
	wantOwned(a, 3, []int{0, 1}, "after migrating back")
	wantOwned(b, 3, []int{2, 3}, "after migrating back")
	verify(cc, 2, "after migrating back")
	cc.Close()
	a.stop(t)
	b.stop(t)

	// Third life: the re-imported shard was checkpointed, not the stale one.
	a, b, cc = boot()
	defer b.stop(t)
	defer a.stop(t)
	defer cc.Close()
	wantOwned(a, 3, []int{0, 1}, "after second restart")
	wantOwned(b, 3, []int{2, 3}, "after second restart")
	verify(cc, 2, "after second restart")
}
