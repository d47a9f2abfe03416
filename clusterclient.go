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
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"palermo/internal/cluster"
	"palermo/internal/serve"
	"palermo/internal/shard"
)

// wrongEpochRetries bounds how many manifest-refresh-and-retry rounds an
// operation attempts before surfacing ErrWrongEpoch. The backoff is taken
// only while a refresh finds no newer manifest, to give an in-flight
// migration cutover time to flip placement.
const (
	wrongEpochRetries = 10
	wrongEpochBackoff = 25 * time.Millisecond
)

var errClusterClosed = fmt.Errorf("palermo: cluster client: %w", ErrClosed)

// ClusterClient is a remote handle on a multi-node cluster store.
type ClusterClient struct {
	cfg    ClientConfig
	router shard.Router

	mu      sync.RWMutex
	man     *cluster.Manifest
	clients map[string]*Client // by node address
	parked  []*Client          // superseded by an epoch bump; closed at Close
	closed  bool
	// The route table of man, rebuilt each time a manifest is adopted:
	// shard → node index, and node index → client.
	owner []int
	nodes []*Client
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
	var man *cluster.Manifest
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
		m, err := cluster.Decode(raw)
		if err != nil {
			cl.Close()
			cc.Close()
			return nil, fmt.Errorf("palermo: manifest from %s: %w", addr, err)
		}
		if man == nil || m.Epoch > man.Epoch {
			man = m
		}
		cc.clients[addr] = cl
	}
	if man == nil {
		cc.Close()
		return nil, fmt.Errorf("palermo: no cluster node reachable: %w", firstErr)
	}
	router, err := shard.NewRouter(man.Blocks, int(man.Shards))
	if err != nil {
		cc.Close()
		return nil, fmt.Errorf("palermo: %w", err)
	}
	cc.router = router
	if err := cc.adoptLocked(man); err != nil {
		cc.Close()
		return nil, err
	}
	return cc, nil
}

// adoptLocked makes man the routing authority: it dials a client for every
// node of man that lacks one pinned at man's epoch, then rebuilds the
// route table. A client pinned at an older epoch is parked (never closed
// mid-flight — an operation may still hold it) and replaced, so redials
// inside the pool can never resurrect a stale geometry. If that redial
// fails the stale client stays: its requests either succeed (the node
// still owns the shard) or fail loudly with wrong-epoch. A node that has
// no client and cannot be dialed leaves the current manifest in place.
// Callers hold mu exclusively (or have exclusive access).
func (cc *ClusterClient) adoptLocked(man *cluster.Manifest) error {
	addrs := man.Nodes()
	nodes := make([]*Client, len(addrs))
	for n, addr := range addrs {
		cl, ok := cc.clients[addr]
		if !ok || cl.Epoch() != man.Epoch {
			fresh, err := Dial(addr, cc.cfg)
			switch {
			case err != nil && !ok:
				return fmt.Errorf("palermo: dial cluster node %s: %w", addr, err)
			case err != nil: // keep the stale client
			case fresh.Blocks() != man.Blocks || fresh.Shards() != int(man.Shards):
				fresh.Close()
				return fmt.Errorf("palermo: node %s serves %d blocks / %d shards, manifest says %d / %d",
					addr, fresh.Blocks(), fresh.Shards(), man.Blocks, man.Shards)
			default:
				if ok {
					cc.parked = append(cc.parked, cl)
				}
				cc.clients[addr], cl = fresh, fresh
			}
		}
		nodes[n] = cl
	}
	owner := make([]int, man.Shards)
	for s := range owner {
		owner[s] = slices.Index(addrs, man.Owner(s))
	}
	cc.man, cc.owner, cc.nodes = man, owner, nodes
	return nil
}

// refresh refetches the manifest from every known node and adopts the
// highest epoch (never regressing).
func (cc *ClusterClient) refresh() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return errClusterClosed
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
	return cc.adoptLocked(best)
}

// clientFor resolves an id to its owning node's client, and the epoch of
// the manifest that routed it.
func (cc *ClusterClient) clientFor(id uint64) (*Client, uint64, error) {
	s, _ := cc.router.Route(id)
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	if cc.closed {
		return nil, 0, errClusterClosed
	}
	return cc.nodes[cc.owner[s]], cc.man.Epoch, nil
}

// retryWrongEpoch runs op until no node rejects it wrong-epoch, refreshing
// the manifest before each retry — safe because a rejected frame executed
// none of its operations. op reports the epoch it was routed under; the
// loop backs off only when the refresh finds no epoch past it, because
// the cutover is still in flight.
func (cc *ClusterClient) retryWrongEpoch(op func() (routed uint64, err error)) error {
	for attempt := 1; ; attempt++ {
		routed, err := op()
		if !errors.Is(err, ErrWrongEpoch) || attempt > wrongEpochRetries {
			return err
		}
		if err := cc.refresh(); err != nil {
			return err
		}
		if cc.Epoch() <= routed {
			time.Sleep(time.Duration(attempt) * wrongEpochBackoff)
		}
	}
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
	var out []byte
	err := cc.retryWrongEpoch(func() (uint64, error) {
		cl, epoch, err := cc.clientFor(id)
		if err == nil {
			out, err = cl.Read(id)
		}
		return epoch, err
	})
	return out, err
}

// Write stores a block obliviously on the owning node.
func (cc *ClusterClient) Write(id uint64, data []byte) error {
	return cc.retryWrongEpoch(func() (uint64, error) {
		cl, epoch, err := cc.clientFor(id)
		if err == nil {
			err = cl.Write(id, data)
		}
		return epoch, err
	})
}

// ReadBatch fetches many blocks, one frame per owning node, all nodes in
// parallel, results merged back into submission order. Each node serves
// its frame as one atomic batch, so the §6 same-block dedup fan-out holds
// within each node's subset — identical to ShardedStore.ReadBatch, whose
// dedup window is also per-shard. On a wrong-epoch rejection only the
// rejected node's group is re-routed and retried (the frame executed
// nothing), so no block is read twice into a different position.
func (cc *ClusterClient) ReadBatch(ids []uint64) ([][]byte, error) {
	if err := checkBatch(cc.Blocks(), ids, nil); err != nil {
		return nil, err
	}
	out := make([][]byte, len(ids))
	return out, cc.batch(ids, nil, out)
}

// WriteBatch stores blocks[i] under ids[i], one frame per owning node (see
// ReadBatch for the scatter/gather and retry semantics).
func (cc *ClusterClient) WriteBatch(ids []uint64, blocks [][]byte) error {
	if len(ids) != len(blocks) {
		return fmt.Errorf("palermo: WriteBatch got %d ids but %d blocks", len(ids), len(blocks))
	}
	if err := checkBatch(cc.Blocks(), ids, blocks); err != nil {
		return err
	}
	return cc.batch(ids, blocks, nil)
}

// batch scatters a read (blocks nil) or write batch until every position
// has executed once: each retry re-routes only the positions whose frame a
// node rejected wrong-epoch.
func (cc *ClusterClient) batch(ids []uint64, blocks, out [][]byte) error {
	pending := make([]int, len(ids))
	for i := range pending {
		pending[i] = i
	}
	return cc.retryWrongEpoch(func() (routed uint64, err error) {
		pending, routed, err = cc.scatter(ids, blocks, out, pending)
		return routed, err
	})
}

// scatter makes one attempt at the batch positions in pending. It
// counting-sorts them by owning node into flat arrays, the way
// host.submitBatch sorts a batch by shard, starts one frame per node, then
// waits on each in turn; a read's results land in out at their positions.
// It returns the positions of the frames a node rejected wrong-epoch,
// which executed nothing, the epoch of the manifest that routed them and,
// once every started frame has completed, the first other error.
func (cc *ClusterClient) scatter(ids []uint64, blocks, out [][]byte, pending []int) ([]int, uint64, error) {
	cc.mu.RLock()
	owner, nodes, routed, closed := cc.owner, cc.nodes, cc.man.Epoch, cc.closed
	cc.mu.RUnlock()
	if closed {
		return nil, 0, errClusterClosed
	}
	// Node n's frame is [end[n-1], end[n]) of gids, pos and gblocks.
	end := make([]int, len(nodes))
	for _, p := range pending {
		s, _ := cc.router.Route(ids[p])
		end[owner[s]]++
	}
	for n, sum := 0, 0; n < len(end); n++ {
		end[n], sum = sum, sum+end[n]
	}
	gids, pos := make([]uint64, len(pending)), make([]int, len(pending))
	var gblocks [][]byte
	if blocks != nil {
		gblocks = make([][]byte, len(pending))
	}
	for _, p := range pending {
		s, _ := cc.router.Route(ids[p])
		k := end[owner[s]]
		end[owner[s]]++
		gids[k], pos[k] = ids[p], p
		if blocks != nil {
			gblocks[k] = blocks[p]
		}
	}
	ctx := context.Background()
	calls := make([]call, len(nodes))
	var err error
	for n, start := 0, 0; n < len(nodes) && err == nil; start, n = end[n], n+1 {
		if start == end[n] {
			continue
		}
		var bs [][]byte
		if blocks != nil {
			bs = gblocks[start:end[n]]
		}
		if calls[n], err = nodes[n].batchCall(gids[start:end[n]], bs); err == nil {
			err = nodes[n].start(ctx, &calls[n])
		}
		if err != nil {
			calls[n] = call{} // never queued: nothing to wait for
		}
	}
	rejected, wrongEpoch := pending[:0], error(nil)
	for n, start := 0, 0; n < len(nodes); start, n = end[n], n+1 {
		if calls[n].done == nil {
			continue
		}
		r, werr := calls[n].wait(ctx)
		switch at := pos[start:end[n]]; {
		case errors.Is(werr, ErrWrongEpoch):
			rejected, wrongEpoch = append(rejected, at...), werr
			continue
		case werr == nil && out != nil && len(r.batch) != len(at):
			werr = fmt.Errorf("palermo: node answered %d of %d batch reads", len(r.batch), len(at))
		case werr == nil && out != nil:
			for j, p := range at {
				out[p] = r.batch[j]
			}
		}
		if err == nil {
			err = werr
		}
	}
	if err == nil {
		err = wrongEpoch
	}
	return rejected, routed, err
}

// Snapshot merges every node's service and traffic counters into one
// cluster-wide view (internal/loadgen.Target). Each operation is served by
// exactly one node, so the merge is exact: counters sum, and the nodes'
// latency histograms pool (serve.Merge), so the summaries are those of
// every operation's sample. A migrated shard's engine counters travel with
// it while its old service-layer history stays in the source's retired
// stats.
func (cc *ClusterClient) Snapshot() (ServiceStats, TrafficReport, error) {
	cc.mu.RLock()
	clients := slices.Collect(maps.Values(cc.clients))
	cc.mu.RUnlock()
	snaps := make([]ServiceStats, len(clients))
	var tr TrafficReport
	for i, cl := range clients {
		s, t, err := cl.Snapshot()
		if err != nil {
			return ServiceStats{}, TrafficReport{}, err
		}
		snaps[i] = s
		tr.add(t)
	}
	return serve.Merge(snaps...), tr, nil
}

// allLocked lists every client of the pool, current and parked. Callers
// hold mu.
func (cc *ClusterClient) allLocked() []*Client {
	return append(slices.Collect(maps.Values(cc.clients)), cc.parked...)
}

// NetStats sums the wire counters of every node client, current and
// superseded.
func (cc *ClusterClient) NetStats() ClientNetStats {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	var out ClientNetStats
	for _, cl := range cc.allLocked() {
		ns := cl.NetStats()
		out.FramesSent += ns.FramesSent
		out.Ops += ns.Ops
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
	clients := cc.allLocked()
	cc.parked = nil
	cc.mu.Unlock()
	var errs []error
	for _, cl := range clients {
		errs = append(errs, cl.Close())
	}
	return errors.Join(errs...)
}
