// Remote client: the oblivious store served over TCP.
//
// This example runs the whole network stack in one process so it needs no
// orchestration: a ShardedStore goes behind palermo.Server on a loopback
// socket, a palermo.Client dials it, and the same operations an in-process
// caller would issue — single reads/writes, an atomic batch with duplicate
// ids, concurrent small reads of a few hot ids — travel the wire protocol
// instead of a function call. At the end it prints the server-side stats
// next to the client's frame counters: the client sends one frame per
// call, and the concurrent reads of one id are batched where they meet,
// by the shard worker, which serves them with one ORAM access and counts
// the rest as dedup fan-outs.
//
// In a real deployment the server half is cmd/palermo-server and the
// client half is this file minus the server setup (dial the server's
// address instead of the loopback listener).
//
// Run: go run ./examples/remote_client
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"sync"

	"palermo"
)

const (
	blocks  = 1 << 14
	shards  = 2
	readers = 32
)

func main() {
	// Server half (cmd/palermo-server in a real deployment).
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{
		Blocks: blocks,
		Shards: shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := palermo.NewServer(st, palermo.ServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	fmt.Printf("serving %d blocks across %d shards on %s\n", blocks, shards, ln.Addr())

	// Client half: dial, then use it exactly like a ShardedStore.
	cl, err := palermo.Dial(ln.Addr().String(), palermo.ClientConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handshake: capacity %d blocks, %d shards\n", cl.Blocks(), cl.Shards())

	secret := make([]byte, palermo.BlockSize)
	copy(secret, "attack at dawn")
	if err := cl.Write(42, secret); err != nil {
		log.Fatal(err)
	}
	got, err := cl.Read(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round trip over the wire: %q\n", string(bytes.TrimRight(got, "\x00")))

	// An explicit batch is one frame and keeps its atomic dedup semantics:
	// the duplicate id is served by a single ORAM access server-side.
	batch, err := cl.ReadBatch([]uint64{42, 7, 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of 3 (one duplicate): identical payloads %v\n",
		bytes.Equal(batch[0], batch[2]))

	// Concurrent single reads, each its own frame; those of one id that
	// meet in a shard's queue share one ORAM access.
	before := cl.NetStats()
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cl.Read(uint64(i % 8)); err != nil {
				log.Print(err)
			}
		}(i)
	}
	wg.Wait()
	ns := cl.NetStats()

	stats, err := cl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d concurrent reads: client sent %d frames for %d ops\n",
		readers, ns.FramesSent-before.FramesSent, ns.Ops-before.Ops)
	fmt.Printf("server served %d reads, %d writes (%d dedup fan-outs)\n",
		stats.Reads, stats.Writes, stats.DedupHits)

	// Teardown order matters: drain the network layer, then the store.
	if err := cl.Close(); err != nil {
		log.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	<-serveDone
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained and closed")
}
