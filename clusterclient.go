package palermo

// ClusterClient is the multi-node form of Client: it routes every block id
// to the owning node through the placement manifest (internal/cluster) and
// scatter/gathers batches across per-node connection pools, preserving the
// §6 intra-batch same-block dedup fan-out (one frame per node per batch).
//
//	cc, _ := palermo.DialCluster([]string{"10.0.0.1:7070", "10.0.0.2:7070"}, palermo.ClientConfig{})
//	defer cc.Close()
//	blocks, _ := cc.ReadBatch([]uint64{1, 2, 3, 1})
//
// Placement staleness is handled transparently: a node that no longer owns
// a shard (a live migration moved it) rejects the whole frame with a
// wrong-epoch status and executes none of its operations, so the client
// refetches the manifest, re-routes, and retries exactly the rejected
// groups — no operation is lost or duplicated. Only unrecoverable
// staleness (retries exhausted, no node answering) surfaces to the caller.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"palermo/internal/cluster"
	"palermo/internal/shard"
)

// wrongEpochRetries bounds how many manifest-refresh-and-retry rounds an
// operation attempts before surfacing ErrWrongEpoch; the backoff gives an
// in-flight migration cutover time to flip placement.
const (
	wrongEpochRetries = 10
	wrongEpochBackoff = 25 * time.Millisecond
)

// ClusterClient is a remote handle on a multi-node cluster store.
type ClusterClient struct {
	cfg    ClientConfig
	router shard.Router

	mu      sync.RWMutex
	man     *cluster.Manifest
	clients map[string]*Client
	parked  []*Client // superseded by an epoch bump; closed at Close
	closed  bool
}

// DialCluster connects to the cluster reachable via addrs: it fetches the
// placement manifest from the first answering node, adopts the
// highest-epoch copy, and dials a client pool per owning node. addrs only
// bootstraps discovery — the manifest is the routing authority, so it may
// name nodes not listed here and vice versa.
func DialCluster(addrs []string, cfg ClientConfig) (*ClusterClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("palermo: DialCluster needs at least one node address")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	cc := &ClusterClient{cfg: cfg, clients: make(map[string]*Client)}
	var firstErr error
	for _, addr := range addrs {
		cl, err := Dial(addr, cfg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		raw, err := cl.Manifest()
		if err != nil {
			cl.Close()
			if firstErr == nil {
				firstErr = fmt.Errorf("palermo: %s is not a cluster node: %w", addr, err)
			}
			continue
		}
		man, err := cluster.Decode(raw)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("palermo: manifest from %s: %w", addr, err)
		}
		if cc.man == nil || man.Epoch > cc.man.Epoch {
			cc.man = man
		}
		cc.clients[addr] = cl
	}
	if cc.man == nil {
		cc.closeAll()
		return nil, fmt.Errorf("palermo: no cluster node reachable: %w", firstErr)
	}
	router, err := shard.NewRouter(cc.man.Blocks, int(cc.man.Shards))
	if err != nil {
		cc.closeAll()
		return nil, fmt.Errorf("palermo: %w", err)
	}
	cc.router = router
	if err := cc.ensureClientsLocked(); err != nil {
		cc.closeAll()
		return nil, err
	}
	return cc, nil
}

func (cc *ClusterClient) closeAll() {
	for _, cl := range cc.clients {
		cl.Close()
	}
	for _, cl := range cc.parked {
		cl.Close()
	}
}

// ensureClientsLocked dials a client for every manifest node that lacks
// one pinned at the current epoch. A client pinned at an older epoch is
// parked (never closed mid-flight — an operation may still hold it) and
// replaced, so redials inside the pool can never resurrect a stale
// geometry. Callers hold mu exclusively (or have exclusive access).
func (cc *ClusterClient) ensureClientsLocked() error {
	var firstErr error
	for _, addr := range cc.man.Nodes() {
		cl, ok := cc.clients[addr]
		if ok && cl.Epoch() == cc.man.Epoch {
			continue
		}
		fresh, err := Dial(addr, cc.cfg)
		if err != nil {
			// Keep a stale client rather than no client: its requests
			// either succeed (the node still owns the shard) or fail
			// loudly with wrong-epoch.
			if firstErr == nil && !ok {
				firstErr = fmt.Errorf("palermo: dial cluster node %s: %w", addr, err)
			}
			continue
		}
		if fresh.Blocks() != cc.man.Blocks || fresh.Shards() != int(cc.man.Shards) {
			fresh.Close()
			return fmt.Errorf("palermo: node %s serves %d blocks / %d shards, manifest says %d / %d",
				addr, fresh.Blocks(), fresh.Shards(), cc.man.Blocks, cc.man.Shards)
		}
		if ok {
			cc.parked = append(cc.parked, cl)
		}
		cc.clients[addr] = fresh
	}
	return firstErr
}

// refresh refetches the manifest from every known node, adopts the highest
// epoch (never regressing), and refreshes the client pool against it.
func (cc *ClusterClient) refresh() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return fmt.Errorf("palermo: cluster client: %w", ErrClosed)
	}
	best := cc.man
	for _, cl := range cc.clients {
		raw, err := cl.Manifest()
		if err != nil {
			continue
		}
		m, err := cluster.Decode(raw)
		if err != nil || m.Blocks != cc.man.Blocks || m.Shards != cc.man.Shards {
			continue
		}
		if m.Epoch > best.Epoch {
			best = m
		}
	}
	cc.man = best
	return cc.ensureClientsLocked()
}

// clientFor resolves an id to (owning client, current epoch).
func (cc *ClusterClient) clientFor(id uint64) (*Client, error) {
	s, _ := cc.router.Route(id)
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	if cc.closed {
		return nil, fmt.Errorf("palermo: cluster client: %w", ErrClosed)
	}
	addr := cc.man.Owner(s)
	cl, ok := cc.clients[addr]
	if !ok {
		return nil, fmt.Errorf("palermo: no connection to node %s (owner of shard %d)", addr, s)
	}
	return cl, nil
}

// retryWrongEpoch runs op, and on a wrong-epoch rejection refetches the
// manifest, re-routes, and retries. Safe because a rejected frame executed
// none of its operations.
func (cc *ClusterClient) retryWrongEpoch(op func() error) error {
	var err error
	for attempt := 0; attempt <= wrongEpochRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * wrongEpochBackoff)
			if rerr := cc.refresh(); rerr != nil {
				return rerr
			}
		}
		if err = op(); err == nil || !errors.Is(err, ErrWrongEpoch) {
			return err
		}
	}
	return err
}

// Blocks returns the cluster store's capacity in blocks.
func (cc *ClusterClient) Blocks() uint64 { return cc.router.Blocks() }

// Shards returns the cluster store's shard count.
func (cc *ClusterClient) Shards() int { return cc.router.Shards() }

// Epoch returns the geometry epoch of the client's current manifest.
func (cc *ClusterClient) Epoch() uint64 {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.man.Epoch
}

// Read fetches a block obliviously from the owning node.
func (cc *ClusterClient) Read(id uint64) ([]byte, error) {
	if id >= cc.Blocks() {
		return nil, fmt.Errorf("palermo: block %d outside capacity %d", id, cc.Blocks())
	}
	var out []byte
	err := cc.retryWrongEpoch(func() error {
		cl, err := cc.clientFor(id)
		if err != nil {
			return err
		}
		out, err = cl.Read(id)
		return err
	})
	return out, err
}

// Write stores a block obliviously on the owning node.
func (cc *ClusterClient) Write(id uint64, data []byte) error {
	if id >= cc.Blocks() {
		return fmt.Errorf("palermo: block %d outside capacity %d", id, cc.Blocks())
	}
	if len(data) != BlockSize {
		return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockSize, len(data))
	}
	return cc.retryWrongEpoch(func() error {
		cl, err := cc.clientFor(id)
		if err != nil {
			return err
		}
		return cl.Write(id, data)
	})
}

// batchGroup is one node's slice of a scattered batch.
type batchGroup struct {
	cl  *Client
	ids []uint64
	pos []int
}

// partition splits positions of ids into per-owning-node groups under the
// current manifest.
func (cc *ClusterClient) partition(ids []uint64, positions []int) ([]*batchGroup, error) {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	if cc.closed {
		return nil, fmt.Errorf("palermo: cluster client: %w", ErrClosed)
	}
	byAddr := make(map[string]*batchGroup)
	var out []*batchGroup
	for _, i := range positions {
		s, _ := cc.router.Route(ids[i])
		addr := cc.man.Owner(s)
		g, ok := byAddr[addr]
		if !ok {
			cl, have := cc.clients[addr]
			if !have {
				return nil, fmt.Errorf("palermo: no connection to node %s (owner of shard %d)", addr, s)
			}
			g = &batchGroup{cl: cl}
			byAddr[addr] = g
			out = append(out, g)
		}
		g.ids = append(g.ids, ids[i])
		g.pos = append(g.pos, i)
	}
	return out, nil
}

// ReadBatch fetches many blocks, one frame per owning node, all nodes in
// parallel, results merged back into submission order. Each node serves
// its frame as one atomic batch, so the §6 same-block dedup fan-out holds
// within each node's subset — identical to ShardedStore.ReadBatch, whose
// dedup window is also per-shard. On a wrong-epoch rejection only the
// rejected node's group is re-routed and retried (the frame executed
// nothing), so no block is read twice into a different position.
func (cc *ClusterClient) ReadBatch(ids []uint64) ([][]byte, error) {
	out := make([][]byte, len(ids))
	for _, id := range ids {
		if id >= cc.Blocks() {
			return nil, fmt.Errorf("palermo: block %d outside capacity %d", id, cc.Blocks())
		}
	}
	return out, cc.scatter(ids, func(g *batchGroup) error {
		blocks, err := g.cl.ReadBatch(g.ids)
		if err != nil {
			return err
		}
		if len(blocks) != len(g.ids) {
			return fmt.Errorf("palermo: node answered %d of %d batch reads", len(blocks), len(g.ids))
		}
		for j, p := range g.pos {
			out[p] = blocks[j]
		}
		return nil
	})
}

// WriteBatch stores blocks[i] under ids[i], one frame per owning node (see
// ReadBatch for the scatter/gather and retry semantics).
func (cc *ClusterClient) WriteBatch(ids []uint64, blocks [][]byte) error {
	if len(ids) != len(blocks) {
		return fmt.Errorf("palermo: WriteBatch got %d ids but %d blocks", len(ids), len(blocks))
	}
	for i, id := range ids {
		if id >= cc.Blocks() {
			return fmt.Errorf("palermo: block %d outside capacity %d", id, cc.Blocks())
		}
		if len(blocks[i]) != BlockSize {
			return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockSize, len(blocks[i]))
		}
	}
	return cc.scatter(ids, func(g *batchGroup) error {
		sub := make([][]byte, len(g.pos))
		for j, p := range g.pos {
			sub[j] = blocks[p]
		}
		return g.cl.WriteBatch(g.ids, sub)
	})
}

// scatter partitions the batch by owner, runs every group concurrently,
// and retries (after a manifest refresh) exactly the groups a node
// rejected with wrong-epoch. Non-epoch errors surface immediately.
func (cc *ClusterClient) scatter(ids []uint64, serve func(*batchGroup) error) error {
	pending := make([]int, len(ids))
	for i := range pending {
		pending[i] = i
	}
	var err error
	for attempt := 0; attempt <= wrongEpochRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * wrongEpochBackoff)
			if rerr := cc.refresh(); rerr != nil {
				return rerr
			}
		}
		var groups []*batchGroup
		groups, err = cc.partition(ids, pending)
		if err != nil {
			return err
		}
		errs := make([]error, len(groups))
		var wg sync.WaitGroup
		for gi, g := range groups {
			wg.Add(1)
			go func(gi int, g *batchGroup) {
				defer wg.Done()
				errs[gi] = serve(g)
			}(gi, g)
		}
		wg.Wait()
		pending = pending[:0]
		err = nil
		for gi, gerr := range errs {
			if gerr == nil {
				continue
			}
			if !errors.Is(gerr, ErrWrongEpoch) {
				return gerr // a real failure beats more re-routing
			}
			err = gerr
			pending = append(pending, groups[gi].pos...)
		}
		if len(pending) == 0 {
			return nil
		}
	}
	return err
}

// Snapshot merges every node's service and traffic counters into one
// cluster-wide view (internal/loadgen.Target). Operation, dedup, and
// traffic counts are exact sums: each operation is served by exactly one
// node, and a migrated shard's engine counters travel with it while its
// old service-layer history stays in the source's retired stats. Latency
// summaries cannot be merged exactly from condensed form — the mean and
// percentiles here are N-weighted combinations of the per-node summaries,
// an approximation.
func (cc *ClusterClient) Snapshot() (ServiceStats, TrafficReport, error) {
	cc.mu.RLock()
	clients := make([]*Client, 0, len(cc.clients))
	for _, cl := range cc.clients {
		clients = append(clients, cl)
	}
	cc.mu.RUnlock()
	var ss ServiceStats
	var tr TrafficReport
	for _, cl := range clients {
		s, t, err := cl.Snapshot()
		if err != nil {
			return ServiceStats{}, TrafficReport{}, err
		}
		ss.Reads += s.Reads
		ss.Writes += s.Writes
		ss.DedupHits += s.DedupHits
		ss.Sheds += s.Sheds
		ss.ReadLat = mergeLatApprox(ss.ReadLat, s.ReadLat)
		ss.WriteLat = mergeLatApprox(ss.WriteLat, s.WriteLat)
		ss.QueueLat = mergeLatApprox(ss.QueueLat, s.QueueLat)
		ss.ExecLat = mergeLatApprox(ss.ExecLat, s.ExecLat)
		tr.Reads += t.Reads
		tr.Writes += t.Writes
		tr.DRAMReads += t.DRAMReads
		tr.DRAMWrites += t.DRAMWrites
		tr.TreeTopHits += t.TreeTopHits
		if t.StashPeak > tr.StashPeak {
			tr.StashPeak = t.StashPeak
		}
	}
	if ops := tr.Reads + tr.Writes; ops > 0 {
		tr.AmplificationFactor = float64(tr.DRAMReads+tr.DRAMWrites) / float64(ops)
	}
	return ss, tr, nil
}

// mergeLatApprox combines two latency summaries N-weighted. Exact for N
// and the mean; an approximation for the percentiles (the underlying
// histograms live on the nodes).
func mergeLatApprox(a, b LatencySummary) LatencySummary {
	if a.N == 0 {
		return b
	}
	if b.N == 0 {
		return a
	}
	n := a.N + b.N
	wa, wb := float64(a.N)/float64(n), float64(b.N)/float64(n)
	return LatencySummary{
		N:      n,
		MeanUs: wa*a.MeanUs + wb*b.MeanUs,
		P50Us:  wa*a.P50Us + wb*b.P50Us,
		P99Us:  wa*a.P99Us + wb*b.P99Us,
	}
}

// NetStats sums the per-node client wire counters.
func (cc *ClusterClient) NetStats() ClientNetStats {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	var out ClientNetStats
	for _, cl := range cc.clients {
		ns := cl.NetStats()
		out.FramesSent += ns.FramesSent
		out.Ops += ns.Ops
		out.MergedOps += ns.MergedOps
	}
	for _, cl := range cc.parked {
		ns := cl.NetStats()
		out.FramesSent += ns.FramesSent
		out.Ops += ns.Ops
		out.MergedOps += ns.MergedOps
	}
	return out
}

// Close closes every node client (current and superseded). Idempotent.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil
	}
	cc.closed = true
	clients := make([]*Client, 0, len(cc.clients)+len(cc.parked))
	for _, cl := range cc.clients {
		clients = append(clients, cl)
	}
	clients = append(clients, cc.parked...)
	cc.parked = nil
	cc.mu.Unlock()
	var errs []error
	for _, cl := range clients {
		errs = append(errs, cl.Close())
	}
	return errors.Join(errs...)
}
