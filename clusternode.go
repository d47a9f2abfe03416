package palermo

// ClusterNode is one node of a multi-node oblivious store: it serves the
// shard ranges a placement manifest (internal/cluster) assigns to its
// address, speaks the same wire protocol as the standalone Server, and can
// surrender a shard to another node through live migration (DESIGN.md
// §11).
//
//	man, _ := cluster.Load("manifest.json")
//	node, _ := palermo.NewClusterNode(palermo.ClusterNodeConfig{
//	        Addr: "10.0.0.1:7070", Store: palermo.ShardedStoreConfig{...}}, man)
//	srv, _ := palermo.NewClusterServer(node, palermo.ServerConfig{})
//	go srv.ListenAndServe(node.Addr())
//
// Placement is public and deterministic (shard = id mod S, then the
// manifest's range lookup), so the cluster layer reveals nothing beyond
// what the standalone network layer already does; each node's backend
// still observes exactly one uniform path per access for the shards it
// owns. Requests that name a shard the node does not own at its current
// geometry epoch are rejected wholesale with a wrong-epoch status — a
// rejected frame executes none of its operations, so a stale client can
// always refetch the manifest and retry without loss or duplication.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"palermo/internal/cluster"
	"palermo/internal/netserve"
	"palermo/internal/serve"
	"palermo/internal/shard"
	"palermo/internal/wire"
)

// ClusterNodeConfig configures one cluster node.
type ClusterNodeConfig struct {
	// Addr is this node's manifest identity: the address clients dial,
	// exactly as it appears in the placement manifest's ranges.
	Addr string
	// Store carries the per-shard engine configuration. Blocks and Shards
	// may be zero (adopted from the manifest); when set they must agree
	// with it. Key and Seed must be identical on every node of the
	// cluster: a migrated shard's sealed blocks and engine state only
	// decrypt (and its IV domain only stays collision-free) under the
	// cluster-wide key and per-shard derived seed.
	Store ShardedStoreConfig
}

// ClusterNode serves the manifest-assigned subset of a sharded store: a
// shard host (host.go) plus the geometry lock, the epoch/ownership check,
// the retired services of surrendered shards and the §11 migration
// protocol (migrate.go).
type ClusterNode struct {
	addr string

	// mu is the geometry lock. Request paths hold it shared across
	// ownership check + enqueue (see submit), so a frame observes one
	// placement: it is either fully executed under the epoch it was
	// checked against or fully rejected. Migration cutover takes it
	// exclusively only for the instants that change placement (holding
	// the shard, flipping the manifest). It guards h.slots, each slot's
	// held flag and h.traceOn.
	mu     sync.RWMutex
	h      *host
	man    *cluster.Manifest
	closed bool

	// retired keeps surrendered shards' drained services and final traces:
	// their service-layer stats and leaf-trace prefixes remain observable
	// after the shard lives elsewhere.
	retired       []*serve.Service
	retiredTraces []LeafTrace

	migMu  sync.Mutex // serializes outbound migrations
	sinkMu sync.Mutex // guards the inbound staging session
	sink   *migrateSink
}

// NewClusterNode opens the shards man assigns to cfg.Addr and starts
// their workers. With a durable store directory, a manifest persisted by
// a previous life of this node supersedes man when its epoch is higher —
// a node that committed a placement flip never restarts into a stale
// assignment.
func NewClusterNode(cfg ClusterNodeConfig, man *cluster.Manifest) (*ClusterNode, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("palermo: cluster node needs an address (its manifest identity)")
	}
	if man == nil {
		return nil, fmt.Errorf("palermo: cluster node needs a placement manifest")
	}
	if err := man.Validate(); err != nil {
		return nil, fmt.Errorf("palermo: %w", err)
	}
	sc := cfg.Store
	if sc.Dir != "" {
		if ns, err := cluster.LoadNodeState(sc.Dir); err != nil {
			return nil, fmt.Errorf("palermo: %w", err)
		} else if ns != nil {
			if ns.Addr != cfg.Addr {
				return nil, fmt.Errorf("palermo: directory %s belongs to node %s, not %s", sc.Dir, ns.Addr, cfg.Addr)
			}
			if ns.Manifest.Epoch > man.Epoch {
				man = ns.Manifest
			}
		}
	}
	// The manifest owns the geometry; an explicitly configured one must
	// agree with it.
	if sc.Blocks != 0 && sc.Blocks != man.Blocks {
		return nil, fmt.Errorf("palermo: configured %d blocks, manifest has %d", sc.Blocks, man.Blocks)
	}
	if sc.Shards != 0 && sc.Shards != int(man.Shards) {
		return nil, fmt.Errorf("palermo: configured %d shards, manifest has %d", sc.Shards, man.Shards)
	}
	sc.Blocks, sc.Shards = man.Blocks, int(man.Shards)
	h, err := newHost(sc, true)
	if err != nil {
		return nil, err
	}
	n := &ClusterNode{addr: cfg.Addr, h: h, man: man}
	for _, s := range man.Owned(cfg.Addr) {
		sl, err := h.openSlot(s, shard.DeriveSeed(h.cfg.Seed, s))
		if err != nil {
			n.Close()
			return nil, err
		}
		h.adoptSlot(s, sl)
	}
	if err := n.persistLocked(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// persistLocked writes the node's durable cluster state. Callers hold mu
// (or have exclusive access during construction/teardown).
func (n *ClusterNode) persistLocked() error {
	if n.h.cfg.Dir == "" {
		return nil
	}
	ns := &cluster.NodeState{Addr: n.addr, Manifest: n.man}
	if err := ns.Save(n.h.cfg.Dir); err != nil {
		return fmt.Errorf("palermo: %w", err)
	}
	return nil
}

// Addr returns the node's manifest identity.
func (n *ClusterNode) Addr() string { return n.addr }

// Blocks returns the cluster store's total capacity in blocks.
func (n *ClusterNode) Blocks() uint64 { return n.h.router.Blocks() }

// Shards returns the cluster store's total shard count.
func (n *ClusterNode) Shards() int { return n.h.router.Shards() }

// Epoch returns the node's current geometry epoch.
func (n *ClusterNode) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.man.Epoch
}

// OwnedShards returns the shards this node currently serves, ascending.
func (n *ClusterNode) OwnedShards() []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]int, 0, len(n.h.slots))
	for s, sl := range n.h.slots {
		if sl != nil {
			out = append(out, s)
		}
	}
	return out
}

// Owns reports whether this node currently serves the shard id routes to.
func (n *ClusterNode) Owns(id uint64) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, _, err := n.h.route(id)
	return err == nil
}

// wrongEpochLocked turns the host's not-served rejection into the typed
// wrong-epoch error; every other outcome passes through. Callers hold mu
// shared.
func (n *ClusterNode) wrongEpochLocked(err error) error {
	if s, ok := err.(notServed); ok {
		return fmt.Errorf("node %s does not own shard %d at epoch %d: %w", n.addr, int(s), n.man.Epoch, netserve.ErrWrongEpoch)
	}
	return err
}

// submit and submitBatch are the host's completion-taking request forms
// under the geometry lock, held shared across ownership check + enqueue
// only: a migration's cutover sets the shard's held flag under the
// exclusive lock and then drains the shard with a Sync barrier, so a frame
// enqueued before the flip executes ahead of the barrier, under the epoch
// it was checked against, and one arriving after it is rejected wrong-epoch
// having executed nothing.
func (n *ClusterNode) submit(op serve.Op, id uint64, data []byte, done serve.Completion) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.wrongEpochLocked(n.h.submit(op, id, data, done))
}

func (n *ClusterNode) submitBatch(op serve.Op, ids []uint64, blocks [][]byte, done func([][]byte, error)) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.wrongEpochLocked(n.h.submitBatch(op, ids, blocks, done))
}

// Read fetches a block obliviously, if this node owns its shard.
func (n *ClusterNode) Read(id uint64) ([]byte, error) {
	return await(n, serve.OpRead, id, nil)
}

// Write stores a block obliviously, if this node owns its shard.
func (n *ClusterNode) Write(id uint64, data []byte) error {
	_, err := await(n, serve.OpWrite, id, data)
	return err
}

// ReadBatch fetches many blocks in one frame-atomic unit: every id's
// shard must be owned here (else the whole batch is rejected untouched),
// and each owned shard's subset is submitted as one atomic batch with the
// §6 same-block dedup fan-out, exactly like ShardedStore.ReadBatch.
func (n *ClusterNode) ReadBatch(ids []uint64) ([][]byte, error) {
	return awaitBatch(n, serve.OpRead, ids, nil)
}

// WriteBatch stores blocks[i] under ids[i], frame-atomically (see
// ReadBatch).
func (n *ClusterNode) WriteBatch(ids []uint64, blocks [][]byte) error {
	_, err := awaitBatch(n, serve.OpWrite, ids, blocks)
	return err
}

// live snapshots the hosted slots (index = shard) so aggregates that
// block on workers run without holding the geometry lock.
func (n *ClusterNode) live() slotSet {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append(slotSet(nil), n.h.slots...)
}

// Stats folds the node's service and engine counters into the wire
// snapshot, including the cluster placement fields of the handshake.
// Service-layer stats merge live AND retired services (a migrated-away
// shard's serving history stays visible here); engine counters travel
// with their shard, so Traffic sums live slots only.
func (n *ClusterNode) Stats() wire.Stats {
	n.mu.RLock()
	live := append(slotSet(nil), n.h.slots...)
	retired, epoch := n.retired, n.man.Epoch
	n.mu.RUnlock()
	return n.h.wireStats(live, retired, epoch)
}

// ServiceStats merges the node's live and retired services into the same
// service-layer snapshot shape ShardedStore.Stats returns (completed
// operations, dedup hits, shed counts, latency summaries). It is the
// operability view of Stats without the wire/placement framing.
func (n *ClusterNode) ServiceStats() ServiceStats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.h.slots.serviceStats(n.retired)
}

// QueueDepths reports each owned shard's instantaneous request-queue
// occupancy, keyed by shard. A point-in-time gauge, not a synchronized
// snapshot.
func (n *ClusterNode) QueueDepths() map[int]int { return n.live().queueDepths() }

// FsyncLag aggregates the owned shards' durable-backend fsync telemetry
// (count and cumulative wait); memory-backed nodes report (0, 0).
func (n *ClusterNode) FsyncLag() (count uint64, total time.Duration) { return n.live().fsyncLag() }

// Traffic aggregates the live slots' engine counters (each snapshotted on
// its own worker). A migrated shard's counters moved with it: its new
// owner reports them, so summing live slots across the cluster counts
// every access exactly once.
func (n *ClusterNode) Traffic() TrafficReport { return n.live().traffic() }

// EnableTraces starts recording every owned shard's leaf trace (including
// shards acquired by later migrations). Call before serving starts.
func (n *ClusterNode) EnableTraces() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.h.enableTraces()
}

// LeafTraces snapshots the leaf traces of every shard this node served:
// the final traces of shards surrendered by migration, then the live
// slots (copied on their own workers). For a migrated shard, this node's
// trace is the prefix of the shard's protocol history; the new owner's
// trace is its continuation.
func (n *ClusterNode) LeafTraces() []LeafTrace {
	n.mu.RLock()
	out := append([]LeafTrace(nil), n.retiredTraces...)
	n.mu.RUnlock()
	return append(out, n.live().leafTraces()...)
}

// Close drains and closes every owned shard's service concurrently
// (checkpointing durable shards) and the retired services. Idempotent.
func (n *ClusterNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	live := n.h.slots
	n.h.slots = make(slotSet, len(live))
	retired := n.retired
	n.retired = nil
	n.mu.Unlock()
	errs := []error{live.close()}
	for _, svc := range retired {
		errs = append(errs, svc.Close())
	}
	return errors.Join(errs...)
}

// NewClusterServer exposes a ClusterNode over TCP with the standalone
// Server's network layer; the node additionally answers the Manifest op
// and the migration op family.
func NewClusterServer(n *ClusterNode, cfg ServerConfig) (*Server, error) {
	if n == nil {
		return nil, fmt.Errorf("palermo: NewClusterServer requires a node")
	}
	return newServer(nodeStore{wireRequests{n}, n}, cfg)
}
