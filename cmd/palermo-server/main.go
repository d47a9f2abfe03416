// Command palermo-server serves a sharded oblivious store over TCP: the
// wire-protocol front end that turns the in-process ShardedStore into a
// network service palermo.Client (and palermo-load -addr) can drive.
//
// Usage:
//
//	palermo-server                                  # 4 shards, 2^18 blocks on 127.0.0.1:7070
//	palermo-server -addr :7070 -shards 8            # public listener, 8 shards
//	palermo-server -dir /data/palermo               # durable WAL backend under -dir
//	palermo-server -max-inflight 128 -idle 5m       # per-conn window + idle reaping
//	palermo-server -admission 50ms                  # shed queued requests older than 50ms (retry status)
//	palermo-server -metrics 127.0.0.1:9090 -pprof   # plain-text /metrics + pprof operability listener
//	palermo-server -config node.json                # flags from a reviewed JSON file
//	palermo-server -manifest cluster.json -addr ... # cluster node: serve owned shards only
//
// -config overlays a JSON file onto the flags by name: each key sets the
// flag spelled the same with '_' for '-' ("group_commit" is
// -group-commit, "max_inflight" is -max-inflight), durations are Go
// strings ("2m") or integer nanoseconds, a zero value keeps the flag's
// default, and an unknown key is an error (internal/cliconf.Overlay). A
// flag explicitly set on the command line overrides its file value, so
// `-config node.json -addr :7071` reuses one file across nodes.
//
// -manifest selects cluster mode: the node loads the placement manifest
// (palermo-ctl init writes one), serves only the contiguous shard ranges
// the manifest assigns to -addr, answers manifest fetches, and accepts
// live shard migrations. Requests for shards it does not own are rejected
// with a wrong-epoch status so stale clients refetch and re-route.
//
// The server prints one "listening on" line once the socket is bound (CI
// and scripts wait for it), then serves until SIGINT/SIGTERM. Shutdown is
// graceful and ordered: the network layer drains first (in-flight
// requests complete and their responses flush), then the store closes —
// with -dir that final close checkpoints every shard, so a clean stop is
// always recoverable with `palermo-load -dir ... -verify`.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"palermo"
	"palermo/internal/cliconf"
	"palermo/internal/cluster"
)

func main() {
	storeFlags := cliconf.StoreFlags(flag.CommandLine)
	addr := flag.String("addr", "127.0.0.1:7070", "TCP listen address")
	maxInFlight := flag.Int("max-inflight", 0, "per-connection in-flight request window (0 = default 64)")
	maxBatch := flag.Int("max-batch", 0, "largest accepted batch frame in ops (0 = default 4096)")
	idle := flag.Duration("idle", 2*time.Minute, "close connections idle for this long (0 = never)")
	metricsAddr := flag.String("metrics", "", "operability listener address serving plain-text /metrics (empty = off)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof on the -metrics listener (keep it private)")
	configPath := flag.String("config", "", "JSON config file, one key per flag; explicitly-set flags override its values")
	manifest := flag.String("manifest", "", "placement manifest path (selects cluster mode)")
	flag.Parse()

	if *configPath != "" {
		if err := cliconf.Overlay(flag.CommandLine, *configPath); err != nil {
			fatal(err)
		}
	}
	storeCfg, err := storeFlags()
	if err != nil {
		fatal(err)
	}
	srvCfg := palermo.ServerConfig{
		MaxInFlight: *maxInFlight,
		MaxBatch:    *maxBatch,
		IdleTimeout: *idle,
	}
	durability := "in-memory"
	if storeCfg.Dir != "" {
		durability = fmt.Sprintf("durable in %s (%s engine)", storeCfg.Dir, storeCfg.Engine)
	}

	if *manifest != "" {
		// Geometry belongs to the manifest in cluster mode: the flag
		// defaults give way, while values set explicitly (on the command
		// line or in the config file) are validated against it — a
		// mismatch is a configuration error, not adapted to.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["blocks"] {
			storeCfg.Blocks = 0
		}
		if !set["shards"] {
			storeCfg.Shards = 0
		}
		runCluster(*addr, *manifest, storeCfg, srvCfg, durability, *metricsAddr, *pprofOn)
		return
	}

	st, err := palermo.NewShardedStore(storeCfg)
	if err != nil {
		fatal(err)
	}
	srv, err := palermo.NewServer(st, srvCfg)
	if err != nil {
		st.Close()
		fatal(err)
	}
	startMetrics(*metricsAddr, palermo.MetricsVars{
		Service:     st.Stats,
		Traffic:     st.Traffic,
		QueueDepths: st.QueueDepths,
		FsyncLag:    st.FsyncLag,
		Net:         srv.NetStats,
	}, *pprofOn)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		st.Close()
		fatal(err)
	}
	fmt.Printf("palermo-server: listening on %s (%d shards, %d blocks, %s)\n",
		ln.Addr(), st.Shards(), st.Blocks(), durability)
	serveLoop(ln, srv, st.Close, st.Stats)
}

// startMetrics binds the operability listener when -metrics is set. The
// listener lives for the whole process: scrapes race shutdown at worst,
// and every source it reads stays safe to call after Close.
func startMetrics(addr string, vars palermo.MetricsVars, pprofOn bool) {
	if addr == "" {
		return
	}
	ms, err := palermo.ServeMetrics(addr, vars, pprofOn)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("palermo-server: metrics on http://%s/metrics\n", ms.Addr())
}

// runCluster serves one cluster node: the manifest decides which shards
// this address owns, and the node handles manifest fetches, wrong-epoch
// rejection of misrouted requests, and live shard migration.
func runCluster(addr, manifestPath string, storeCfg palermo.ShardedStoreConfig, srvCfg palermo.ServerConfig, durability, metricsAddr string, pprofOn bool) {
	man, err := cluster.Load(manifestPath)
	if err != nil {
		fatal(err)
	}
	node, err := palermo.NewClusterNode(palermo.ClusterNodeConfig{Addr: addr, Store: storeCfg}, man)
	if err != nil {
		fatal(err)
	}
	srv, err := palermo.NewClusterServer(node, srvCfg)
	if err != nil {
		node.Close()
		fatal(err)
	}
	startMetrics(metricsAddr, palermo.MetricsVars{
		Service:     node.ServiceStats,
		Traffic:     node.Traffic,
		QueueDepths: node.QueueDepths,
		FsyncLag:    node.FsyncLag,
		Net:         srv.NetStats,
	}, pprofOn)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		node.Close()
		fatal(err)
	}
	fmt.Printf("palermo-server: listening on %s (cluster node %s, epoch %d, owns shards %v of %d, %d blocks, %s)\n",
		ln.Addr(), node.Addr(), node.Epoch(), node.OwnedShards(), node.Shards(), node.Blocks(), durability)
	serveLoop(ln, srv, node.Close, node.ServiceStats)
}

// serveLoop serves until a signal, then drains the network layer before
// closing the store so every accepted request completes against an open
// store.
func serveLoop(ln net.Listener, srv *palermo.Server, closeStore func() error, stats func() palermo.ServiceStats) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case sig := <-sigc:
		fmt.Printf("palermo-server: %v — draining\n", sig)
	case err := <-serveErr:
		closeStore()
		fatal(err)
	}
	if err := srv.Close(); err != nil {
		closeStore()
		fatal(err)
	}
	ss := stats()
	if err := closeStore(); err != nil {
		fatal(err)
	}
	fmt.Printf("palermo-server: stopped (%d reads, %d writes served)\n", ss.Reads, ss.Writes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "palermo-server:", err)
	os.Exit(1)
}
