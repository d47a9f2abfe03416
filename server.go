package palermo

// Server exposes a ShardedStore over TCP speaking the palermo wire
// protocol, so remote clients (palermo.Client, cmd/palermo-load -addr)
// drive the same sharded service path an in-process caller does.
//
//	st, _ := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 18, Shards: 4})
//	srv, _ := palermo.NewServer(st, palermo.ServerConfig{})
//	go srv.ListenAndServe("127.0.0.1:7070")
//	...
//	srv.Close() // graceful: drains in-flight requests, then
//	st.Close()  // checkpoint + release the store
//
// The heavy lifting lives in internal/netserve (per-connection reader and
// writer goroutines, completion-driven pipelining, bounded in-flight
// windows, graceful drain); this wrapper adapts the store and validates
// limits.
// DESIGN.md §8 describes the wire format and why the network layer
// observes only the §VI adversary's view.

import (
	"fmt"
	"net"
	"time"

	"palermo/internal/netserve"
	"palermo/internal/serve"
	"palermo/internal/wire"
)

// The wire protocol's block granularity and latency histogram layout are
// pinned to the store's; these fail to compile if they ever drift.
var (
	_ [0]struct{} = [wire.BlockBytes - BlockSize]struct{}{}
	_ [0]struct{} = [wire.LatBuckets - serve.LatBuckets]struct{}{}
)

// ErrServerClosed is returned by Server.Serve/ListenAndServe after Close.
var ErrServerClosed = netserve.ErrServerClosed

// ServerConfig tunes the network serving layer. The zero value uses the
// defaults.
type ServerConfig struct {
	// MaxInFlight bounds each connection's outstanding requests. When the
	// window is full the server stops reading that connection, so TCP flow
	// control pushes back on the client — the socket extension of the
	// shard queues' back-pressure. Default 64.
	MaxInFlight int
	// MaxBatch caps the operations one batch frame may carry; larger
	// batches are rejected with a typed error, not served. Default 4096.
	MaxBatch int
	// IdleTimeout closes connections that send nothing for this long
	// (0 = never).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write so a stalled client cannot
	// wedge a connection (default 30s).
	WriteTimeout time.Duration
}

// Server serves one ShardedStore over TCP. Closing the Server does not
// close the store: drain the server first, then close the store.
type Server struct {
	ns *netserve.Server
}

// NewServer validates cfg and builds a server over st. The store must
// outlive the server; requests arriving while the store is closing are
// answered with a typed closed status that clients map to ErrClosed.
func NewServer(st *ShardedStore, cfg ServerConfig) (*Server, error) {
	if st == nil {
		return nil, fmt.Errorf("palermo: NewServer requires a store")
	}
	return newServer(serverStore{wireRequests{st}, st}, cfg)
}

// newServer maps ServerConfig onto the network layer for both the
// standalone and the cluster server.
func newServer(st netserve.Store, cfg ServerConfig) (*Server, error) {
	ns, err := netserve.New(st, netserve.Config{
		MaxInFlight:  cfg.MaxInFlight,
		MaxBatch:     cfg.MaxBatch,
		IdleTimeout:  cfg.IdleTimeout,
		WriteTimeout: cfg.WriteTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("palermo: %w", err)
	}
	return &Server{ns: ns}, nil
}

// Serve accepts connections on ln until Close, then returns
// ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error { return s.ns.Serve(ln) }

// ListenAndServe listens on the TCP address and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("palermo: %w", err)
	}
	return s.ns.Serve(ln)
}

// Addr returns the serving address once Serve/ListenAndServe has bound a
// listener (nil before).
func (s *Server) Addr() net.Addr { return s.ns.Addr() }

// Close gracefully shuts the server down: stop accepting, let every
// in-flight request complete and its response flush, then close all
// connections. Idempotent.
func (s *Server) Close() error { return s.ns.Close() }

// ServerNetStats counts the reply side of a server's wire: the response
// frames it handed to its sockets, the writes that carried them — their ratio is
// the coalescing factor, how many replies share one write — and the
// connections open now. All three depend only on request counts and
// arrival timing, never on block ids or payloads.
type ServerNetStats = netserve.NetStats

// NetStats snapshots the server's reply-path counters.
func (s *Server) NetStats() ServerNetStats { return s.ns.NetStats() }

// wireRequests maps netserve.Store's four data methods onto a submitter.
type wireRequests struct{ submitter }

func (a wireRequests) Read(id uint64, done serve.Completion) error {
	return a.submit(serve.OpRead, id, nil, done)
}

func (a wireRequests) Write(id uint64, data []byte, done serve.Completion) error {
	return a.submit(serve.OpWrite, id, data, done)
}

func (a wireRequests) ReadBatch(ids []uint64, done netserve.BatchCompletion) error {
	return a.submitBatch(serve.OpRead, ids, nil, done)
}

func (a wireRequests) WriteBatch(ids []uint64, blocks [][]byte, done netserve.BatchCompletion) error {
	return a.submitBatch(serve.OpWrite, ids, blocks, done)
}

// serverStore is the netserve.Store of a ShardedStore: its requests, and
// Stats as the single wire snapshot folding service stats, traffic counters
// and store geometry. A standalone server has no placement: epoch 0, every
// shard owned.
type serverStore struct {
	wireRequests
	st *ShardedStore
}

func (a serverStore) Stats() wire.Stats { return a.st.wireStats(a.st.slots, nil, 0) }

// nodeStore is the netserve.Store of a ClusterNode, which additionally
// answers the cluster-only ops (netserve.ExtStore).
type nodeStore struct {
	wireRequests
	n *ClusterNode
}

func (a nodeStore) Stats() wire.Stats { return a.n.Stats() }

func (a nodeStore) ServeExt(op byte, payload []byte) ([]byte, error) {
	return a.n.ServeExt(op, payload)
}
