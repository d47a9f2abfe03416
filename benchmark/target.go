package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"palermo"
	"palermo/benchmark/layers"
)

// target is the request surface every serving target shares:
// *palermo.ShardedStore, *palermo.Client and *palermo.ClusterClient.
type target interface {
	Read(id uint64) ([]byte, error)
	Write(id uint64, data []byte) error
	ReadBatch(ids []uint64) ([][]byte, error)
	WriteBatch(ids []uint64, blocks [][]byte) error
	Snapshot() (palermo.ServiceStats, palermo.TrafficReport, error)
}

// system is one built serving target with everything behind it, bound only
// to the exported palermo API (plus the placement manifest constructor,
// which NewClusterNode takes as an internal type).
type system struct {
	wl     *workload
	blocks uint64
	shards int
	seed   uint64
	dir    string // "" for the memory engine
	conns  int    // connections of a palermo.Client; a ClusterClient has one per node

	tgt      target
	fsyncLag func() (uint64, time.Duration)
	netStats func() palermo.ClientNetStats // nil without a client
	epoch    func() uint64                 // nil outside a cluster
	addrs    []string                      // cluster node identities, kept across a restart
	closers  []func() error                // in closing order
}

func (s *system) storeConfig(dir string) palermo.ShardedStoreConfig {
	return palermo.ShardedStoreConfig{Engine: s.wl.Engine, Dir: dir, Blocks: s.blocks, Shards: s.shards, Seed: s.seed}
}

// open builds (or, over a populated dir, reopens) the target.
func (s *system) open() error {
	switch s.wl.Target {
	case "store":
		st, err := palermo.NewShardedStore(s.storeConfig(s.dir))
		if err != nil {
			return err
		}
		s.tgt, s.fsyncLag = st, st.FsyncLag
		s.closers = []func() error{st.Close}
	case "client":
		st, err := palermo.NewShardedStore(s.storeConfig(s.dir))
		if err != nil {
			return err
		}
		s.fsyncLag = st.FsyncLag
		s.closers = []func() error{st.Close}
		srv, err := palermo.NewServer(st, palermo.ServerConfig{})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.closers = append([]func() error{serveOn(srv, ln)}, s.closers...)
		cl, err := palermo.Dial(ln.Addr().String(), palermo.ClientConfig{Conns: s.conns})
		if err != nil {
			return err
		}
		s.tgt, s.netStats = cl, cl.NetStats
		s.closers = append([]func() error{cl.Close}, s.closers...)
	case "cluster":
		return s.openCluster()
	default:
		return fmt.Errorf("benchmark: workload %s has no serving target", s.wl.Name)
	}
	return nil
}

// openCluster starts one node per shard, each serving its own directory
// under dir, and dials them. A restart listens on the addresses of the
// first start again, because a node's directory is bound to its address.
func (s *system) openCluster() (err error) {
	lns := make([]net.Listener, s.shards)
	defer func() {
		if err != nil {
			for _, ln := range lns {
				if ln != nil {
					ln.Close()
				}
			}
		}
	}()
	first := s.addrs == nil
	for i := range lns {
		addr := "127.0.0.1:0"
		if !first {
			addr = s.addrs[i]
		}
		if lns[i], err = net.Listen("tcp", addr); err != nil {
			return err
		}
		if first {
			s.addrs = append(s.addrs, lns[i].Addr().String())
		}
	}
	man, err := layers.EvenSplit(s.blocks, s.shards, s.addrs)
	if err != nil {
		return err
	}
	var nodes []*palermo.ClusterNode
	var stops []func() error
	for i, ln := range lns {
		cfg := palermo.ClusterNodeConfig{Addr: s.addrs[i], Store: s.storeConfig(filepath.Join(s.dir, fmt.Sprintf("node-%d", i)))}
		node, err := palermo.NewClusterNode(cfg, man)
		if err != nil {
			return err
		}
		nodes = append(nodes, node)
		s.closers = append(s.closers, node.Close)
		srv, err := palermo.NewClusterServer(node, palermo.ServerConfig{})
		if err != nil {
			return err
		}
		stops = append(stops, serveOn(srv, ln))
	}
	s.closers = append(stops, s.closers...)
	cc, err := palermo.DialCluster(s.addrs, palermo.ClientConfig{})
	if err != nil {
		return err
	}
	s.tgt, s.netStats, s.epoch = cc, cc.NetStats, cc.Epoch
	s.closers = append([]func() error{cc.Close}, s.closers...)
	s.fsyncLag = func() (n uint64, d time.Duration) {
		for _, node := range nodes {
			c, t := node.FsyncLag()
			n, d = n+c, d+t
		}
		return n, d
	}
	return nil
}

// serveOn starts srv on ln and returns the function that stops it and
// waits for Serve to return.
func serveOn(srv *palermo.Server, ln net.Listener) func() error {
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return func() error {
		err := srv.Close()
		if serr := <-done; serr != nil && !errors.Is(serr, palermo.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
}

// close stops clients, then servers, then stores, waiting for each.
func (s *system) close() error {
	var err error
	for _, c := range s.closers {
		err = errors.Join(err, c())
	}
	s.closers, s.tgt = nil, nil
	return err
}

// prefill writes version 1 of every block, 256 blocks a call.
func (s *system) prefill(ver versions) error {
	const chunk = 256
	ids := make([]uint64, 0, chunk)
	blocks := make([][]byte, 0, chunk)
	buf := make([]byte, chunk*blockSize)
	for id := uint64(0); id < s.blocks; id++ {
		b := buf[len(ids)*blockSize:][:blockSize]
		payload(b, id, 1)
		ids, blocks = append(ids, id), append(blocks, b)
		if len(ids) == chunk || id == s.blocks-1 {
			if err := s.tgt.WriteBatch(ids, blocks); err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
			ids, blocks = ids[:0], blocks[:0]
		}
	}
	for i := range ver {
		ver[i].Store(1)
	}
	return nil
}

// newSystem builds a target in a fresh directory under outDir and prefills
// it; it returns the time both took.
func newSystem(wl *workload, blocks uint64, shards int, seed uint64, outDir string, ver versions) (*system, time.Duration, error) {
	// A client gets one connection per shard, as a cluster client has, and
	// never more connections than the host has processors.
	s := &system{wl: wl, blocks: blocks, shards: shards, seed: seed, conns: min(shards, procs())}
	if wl.durable() {
		dir, err := os.MkdirTemp(outDir, wl.Name+"-")
		if err != nil {
			return nil, 0, err
		}
		s.dir = dir
	}
	t0 := time.Now()
	err := s.open()
	if err == nil {
		err = s.prefill(ver)
	}
	el := time.Since(t0)
	if err != nil {
		s.destroy()
		return nil, 0, err
	}
	return s, el, nil
}

// destroy closes the system and removes its directory.
func (s *system) destroy() error {
	err := s.close()
	if s.dir != "" {
		err = errors.Join(err, os.RemoveAll(s.dir))
	}
	return err
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}
