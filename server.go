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
// The heavy lifting lives in internal/netserve (per-connection
// reader/writer goroutines, pipelining, bounded in-flight windows,
// graceful drain); this wrapper adapts the store and validates limits.
// DESIGN.md §8 describes the wire format and why the network layer
// observes only the §VI adversary's view.

import (
	"fmt"
	"net"
	"time"

	"palermo/internal/netserve"
	"palermo/internal/wire"
)

// The wire protocol's block granularity is pinned to the store's; this
// fails to compile if they ever drift.
var _ [0]struct{} = [wire.BlockBytes - BlockSize]struct{}{}

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
	return newServer(serverStore{st}, cfg)
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

// serverStore adapts ShardedStore to the netserve.Store interface: the
// request methods are the store's own, and Stats becomes the single wire
// snapshot folding service stats, traffic counters and store geometry. A
// standalone server has no placement: epoch 0, every shard owned.
type serverStore struct{ *ShardedStore }

func (a serverStore) Stats() wire.Stats { return a.wireStats(a.slots, nil, 0) }
