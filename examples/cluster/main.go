// Example cluster demonstrates the multi-node serving layer end to end:
// placement by manifest, the cluster-routing client, a live shard
// migration under load, and per-node durable verification.
//
// The demo orchestrates real processes (the durable_store re-exec idiom —
// this binary re-exec'd is the node server, so no separate build step):
//
//  1. The parent writes a placement manifest splitting 4 shards across
//     two node addresses, then starts two child processes, each serving
//     its owned shards from its own WAL directory.
//  2. A ClusterClient writes a deterministic stamp across the whole id
//     space — batches scatter to both nodes — and reads it back.
//  3. Shard 0 migrates node A → node B live (snapshot + teed tail +
//     sealed engine state, then an ownership flip to geometry epoch 2).
//     The same client, still holding the epoch-1 manifest, keeps
//     operating: its misrouted frames are rejected whole with a
//     wrong-epoch status, it refetches the manifest, and retries — no op
//     lost, none duplicated.
//  4. Both nodes get SIGTERM (graceful drain + checkpoint). The parent
//     reopens each directory offline and verifies every stamped block the
//     node's persisted manifest says it owns — including the migrated
//     shard's blocks, now in B's directory, and post-migration overwrites.
//
// Run with: go run ./examples/cluster
package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"palermo"
	"palermo/internal/cluster"
)

const (
	childEnv = "PALERMO_CLUSTER_NODE" // "addr;dir;manifestPath"
	blocks   = 1 << 12
	shards   = 4
	stamped  = 64
)

func storeCfg(dir string) palermo.ShardedStoreConfig {
	return palermo.ShardedStoreConfig{
		// Blocks/Shards stay zero: a cluster node adopts the manifest's
		// geometry, so the numbers live in exactly one place.
		Engine:      palermo.BackendWAL,
		Dir:         dir,
		GroupCommit: 1,
	}
}

// payload is the deterministic stamp for (generation, id).
func payload(gen, id uint64) []byte {
	b := make([]byte, palermo.BlockSize)
	for i := range b {
		b[i] = byte(gen*151 + id*11 + uint64(i))
	}
	return b
}

// nodeLife is the child process: one cluster node serving until SIGTERM.
func nodeLife(spec string) {
	parts := strings.SplitN(spec, ";", 3)
	addr, dir, manifestPath := parts[0], parts[1], parts[2]
	man, err := cluster.Load(manifestPath)
	check(err)
	node, err := palermo.NewClusterNode(palermo.ClusterNodeConfig{Addr: addr, Store: storeCfg(dir)}, man)
	check(err)
	srv, err := palermo.NewClusterServer(node, palermo.ServerConfig{})
	check(err)
	ln, err := net.Listen("tcp", addr)
	check(err)
	fmt.Printf("  node %s: serving shards %v (epoch %d)\n", addr, node.OwnedShards(), node.Epoch())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	select {
	case <-sigc:
	case err := <-serveDone:
		check(err)
	}
	owned := node.OwnedShards()
	check(srv.Close()) // drain in-flight requests first
	check(node.Close())
	fmt.Printf("  node %s: drained and checkpointed (owned %v)\n", addr, owned)
	os.Exit(0)
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		nodeLife(spec)
	}

	root, err := os.MkdirTemp("", "palermo-cluster-*")
	check(err)
	defer os.RemoveAll(root)

	// Two loopback addresses, then the manifest that splits the shard
	// space across them (shards 0,1 → A; 2,3 → B).
	addrs := []string{freeAddr(), freeAddr()}
	man, err := cluster.EvenSplit(blocks, shards, addrs)
	check(err)
	manifestPath := filepath.Join(root, "manifest.json")
	check(man.Save(manifestPath))
	fmt.Printf("manifest: %d blocks, %d shards, epoch %d\n", man.Blocks, man.Shards, man.Epoch)
	for _, addr := range man.Nodes() {
		fmt.Printf("  %s -> shards %v\n", addr, man.Owned(addr))
	}

	// Start both node processes and wait for their listeners.
	children := make([]*exec.Cmd, 2)
	for i, addr := range addrs {
		dir := filepath.Join(root, fmt.Sprintf("node-%d", i))
		child := exec.Command(os.Args[0])
		child.Env = append(os.Environ(), childEnv+"="+addr+";"+dir+";"+manifestPath)
		child.Stdout, child.Stderr = os.Stdout, os.Stderr
		check(child.Start())
		children[i] = child
	}
	for _, addr := range addrs {
		waitReady(addr)
	}

	// One cluster client: the stamp scatters across both nodes.
	cc, err := palermo.DialCluster(addrs, palermo.ClientConfig{})
	check(err)
	ids := make([]uint64, stamped)
	gen1 := make([][]byte, stamped)
	for i := range ids {
		ids[i] = uint64(i)
		gen1[i] = payload(1, uint64(i))
	}
	check(cc.WriteBatch(ids, gen1))
	got, err := cc.ReadBatch(ids)
	check(err)
	for i := range ids {
		if !bytes.Equal(got[i], gen1[i]) {
			fail("block %d diverged before migration", ids[i])
		}
	}
	fmt.Printf("stamped %d blocks across the cluster and read them back (epoch %d)\n", stamped, cc.Epoch())

	// Live migration: shard 0 moves A → B while the client keeps its
	// epoch-1 manifest. palermo-ctl migrate does exactly this dial.
	admin, err := palermo.Dial(addrs[0], palermo.ClientConfig{})
	check(err)
	check(admin.Migrate(0, addrs[1]))
	check(admin.Close())
	fmt.Printf("migrated shard 0: %s -> %s\n", addrs[0], addrs[1])

	// The stale client rides out the epoch bump transparently: rejected
	// frames executed nothing, so the retry after the manifest refetch
	// serves every op exactly once.
	got, err = cc.ReadBatch(ids)
	check(err)
	for i := range ids {
		if !bytes.Equal(got[i], gen1[i]) {
			fail("block %d diverged after migration", ids[i])
		}
	}
	// Overwrite the migrated shard's blocks post-migration: these land on
	// B and must survive its checkpointed shutdown.
	final := make(map[uint64][]byte, stamped)
	for _, id := range ids {
		final[id] = gen1[id]
	}
	for _, id := range ids {
		if id%shards == 0 {
			final[id] = payload(2, id)
			check(cc.Write(id, final[id]))
		}
	}
	fmt.Printf("re-read all blocks and overwrote the migrated shard's through the stale client (epoch now %d)\n", cc.Epoch())
	check(cc.Close())

	// Graceful stop: drain, checkpoint, persist node state.
	for _, child := range children {
		check(child.Process.Signal(syscall.SIGTERM))
	}
	for _, child := range children {
		check(child.Wait())
	}

	// Offline verification per node directory: each node's persisted
	// manifest names the shards its WAL holds — B's now include shard 0.
	for i := range addrs {
		dir := filepath.Join(root, fmt.Sprintf("node-%d", i))
		verifyNode(dir, final)
	}
	fmt.Println("cluster: OK")
}

// verifyNode reopens one node directory without a listener and checks
// every stamped block its persisted manifest assigns to it.
func verifyNode(dir string, want map[uint64][]byte) {
	ns, err := cluster.LoadNodeState(dir)
	check(err)
	if ns == nil {
		fail("%s has no persisted node state", dir)
	}
	node, err := palermo.NewClusterNode(palermo.ClusterNodeConfig{Addr: ns.Addr, Store: storeCfg(dir)}, ns.Manifest)
	check(err)
	checked := 0
	for id, exp := range want {
		if !node.Owns(id) {
			continue
		}
		got, err := node.Read(id)
		check(err)
		if !bytes.Equal(got, exp) {
			fail("node %s: block %d diverged after restart", ns.Addr, id)
		}
		checked++
	}
	check(node.Close())
	fmt.Printf("verified %d stamped blocks in %s (node %s, epoch %d, shards %v)\n",
		checked, filepath.Base(dir), ns.Addr, ns.Manifest.Epoch, ns.Manifest.Owned(ns.Addr))
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	addr := ln.Addr().String()
	check(ln.Close())
	return addr
}

// waitReady polls until the node's listener accepts a handshake.
func waitReady(addr string) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := palermo.Dial(addr, palermo.ClientConfig{DialTimeout: 250 * time.Millisecond})
		if err == nil {
			check(cl.Close())
			return
		}
		if time.Now().After(deadline) {
			fail("node %s never became ready: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cluster: "+format+"\n", args...)
	os.Exit(1)
}
