package palermo

// The cluster-only wire ops of a ClusterNode: the manifest fetch and the
// §11 live-migration protocol — the inbound staging sink, the outbound
// source driver, and the raw sequential stream between them. Everything
// that builds or tears down a shard goes through the host (host.go).

import (
	"fmt"
	"net"
	"os"
	"time"

	"palermo/internal/shard"
	"palermo/internal/wire"
)

// ServeExt dispatches the cluster-only wire ops (netserve.ExtStore). The
// payload aliases the connection's frame buffer, so anything retained is
// copied here.
func (n *ClusterNode) ServeExt(op byte, payload []byte) ([]byte, error) {
	switch op {
	case wire.OpManifest:
		n.mu.RLock()
		man := n.man
		n.mu.RUnlock()
		return man.Encode()
	case wire.OpMigrateBegin:
		mb, err := wire.ParseMigrateBeginReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkBegin(mb)
	case wire.OpMigrateBlocks:
		s, recs, err := wire.ParseMigrateBlocksReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkBlocks(s, recs)
	case wire.OpMigrateMeta:
		s, metaEpoch, total, off, chunk, err := wire.ParseMigrateMetaReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkMeta(s, metaEpoch, total, off, chunk)
	case wire.OpMigrateCommit:
		s, newEpoch, err := wire.ParseMigrateCommitReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkCommit(s, newEpoch)
	case wire.OpMigrateAbort:
		s, err := wire.ParseMigrateAbortReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkAbort(s)
	case wire.OpMigrate:
		s, target, err := wire.ParseMigrateReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.Migrate(int(s), target)
	}
	return nil, fmt.Errorf("palermo: unsupported op %d", op)
}

// migrateSink is the inbound staging session: the joining node holds the
// streamed shard entirely in memory until Commit, so a failed migration
// leaves no on-disk trace to clean up.
type migrateSink struct {
	begin     wire.MigrateBegin
	blocks    map[uint64]shard.SealedBlock // last write wins, like replaying the puts
	metaEpoch uint64
	metaTotal uint32
	meta      []byte // staged sequentially; complete when len == metaTotal
}

// sinkBegin opens a staging session after checking the offered shard can
// belong to this node's store: same geometry, same epoch, not already
// owned here. One inbound migration at a time.
func (n *ClusterNode) sinkBegin(mb wire.MigrateBegin) error {
	n.mu.RLock()
	epoch := n.man.Epoch
	owned := int(mb.Shard) < n.Shards() && n.h.slots[mb.Shard] != nil
	n.mu.RUnlock()
	if int(mb.Shard) >= n.Shards() {
		return fmt.Errorf("palermo: migrate: shard %d outside store's %d shards", mb.Shard, n.Shards())
	}
	if mb.Stride != uint32(n.Shards()) || mb.Blocks != n.Blocks() {
		return fmt.Errorf("palermo: migrate: geometry mismatch (sender %d blocks / %d shards, node %d / %d)",
			mb.Blocks, mb.Stride, n.Blocks(), n.Shards())
	}
	if mb.ShardBlocks != n.h.router.ShardBlocks(int(mb.Shard)) {
		return fmt.Errorf("palermo: migrate: shard %d capacity mismatch (%d vs %d)", mb.Shard, mb.ShardBlocks, n.h.router.ShardBlocks(int(mb.Shard)))
	}
	if mb.Epoch != epoch {
		return fmt.Errorf("palermo: migrate: sender at epoch %d, node at %d: refetch placement first", mb.Epoch, epoch)
	}
	if owned {
		return fmt.Errorf("palermo: migrate: node %s already owns shard %d", n.addr, mb.Shard)
	}
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	if n.sink != nil {
		return fmt.Errorf("palermo: migrate: a migration of shard %d is already staging", n.sink.begin.Shard)
	}
	n.sink = &migrateSink{begin: mb, blocks: make(map[uint64]shard.SealedBlock)}
	return nil
}

// sinkFor returns the staging session, which must match the frame's shard.
func (n *ClusterNode) sinkFor(s uint32) (*migrateSink, error) {
	if n.sink == nil || n.sink.begin.Shard != s {
		return nil, fmt.Errorf("palermo: migrate: no staging session for shard %d", s)
	}
	return n.sink, nil
}

// sinkBlocks stages one frame of sealed blocks (snapshot or tail; later
// records for the same local supersede earlier ones, exactly like
// replaying the puts in order).
func (n *ClusterNode) sinkBlocks(s uint32, recs []wire.MigrateBlock) error {
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	sink, err := n.sinkFor(s)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Local >= sink.begin.ShardBlocks {
			return fmt.Errorf("palermo: migrate: block %d outside shard %d capacity %d", r.Local, s, sink.begin.ShardBlocks)
		}
		sink.blocks[r.Local] = shard.SealedBlock{
			Local: r.Local, Epoch: r.Epoch,
			Ct: append([]byte(nil), r.Ct...), // r.Ct aliases the frame buffer
		}
	}
	return nil
}

// sinkMeta stages one chunk of the sealed engine-state blob (sequential:
// each chunk's offset must equal the bytes staged so far).
func (n *ClusterNode) sinkMeta(s uint32, metaEpoch uint64, total, off uint32, chunk []byte) error {
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	sink, err := n.sinkFor(s)
	if err != nil {
		return err
	}
	if sink.meta == nil {
		sink.metaEpoch, sink.metaTotal = metaEpoch, total
		sink.meta = make([]byte, 0, total)
	}
	if metaEpoch != sink.metaEpoch || total != sink.metaTotal {
		return fmt.Errorf("palermo: migrate: meta chunk changed identity mid-stream (epoch %d/%d, total %d/%d)",
			metaEpoch, sink.metaEpoch, total, sink.metaTotal)
	}
	if uint32(len(sink.meta)) != off {
		return fmt.Errorf("palermo: migrate: meta chunk at offset %d, want %d (chunks must be sequential)", off, len(sink.meta))
	}
	sink.meta = append(sink.meta, chunk...)
	return nil
}

// sinkAbort discards the staging session.
func (n *ClusterNode) sinkAbort(s uint32) error {
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	if _, err := n.sinkFor(s); err != nil {
		return err
	}
	n.sink = nil
	return nil
}

// sinkCommit turns the staged session into a live owned shard and flips
// the node's placement to the new epoch: build the shard (wiping any
// stale on-disk state a previous ownership left behind), import the
// sealed blocks, restore the exact engine state, checkpoint, start the
// worker, and only then expose the slot and the new manifest.
func (n *ClusterNode) sinkCommit(s uint32, newEpoch uint64) error {
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	sink, err := n.sinkFor(s)
	if err != nil {
		return err
	}
	// The session is consumed either way: a failed commit needs a fresh
	// Begin, it must not wedge the node's single staging slot.
	n.sink = nil
	if len(sink.meta) == 0 || uint32(len(sink.meta)) != sink.metaTotal {
		return fmt.Errorf("palermo: migrate: commit with %d of %d meta bytes staged", len(sink.meta), sink.metaTotal)
	}
	if newEpoch != sink.begin.Epoch+1 {
		return fmt.Errorf("palermo: migrate: commit epoch %d, want %d", newEpoch, sink.begin.Epoch+1)
	}
	if n.h.cfg.Dir != "" {
		// A previous ownership of this shard (before an earlier migration
		// away) left a subdirectory whose recovered state diverges from
		// the incoming one: wipe it, this import IS the shard's state.
		if err := os.RemoveAll(n.h.shardDir(int(s))); err != nil {
			return fmt.Errorf("palermo: migrate: %w", err)
		}
	}
	sl, err := n.h.openSlot(int(s), shard.DeriveSeed(n.h.cfg.Seed, int(s)))
	if err != nil {
		return fmt.Errorf("palermo: migrate: %w", err)
	}
	fail := func(err error) error {
		sl.sh.Retire() // never farewell-checkpoint a half-imported shard
		sl.sh.Close()
		return fmt.Errorf("palermo: migrate: %w", err)
	}
	blocks := make([]shard.SealedBlock, 0, len(sink.blocks))
	for _, b := range sink.blocks {
		blocks = append(blocks, b)
	}
	if err := sl.sh.ImportBlocks(blocks); err != nil {
		return fail(err)
	}
	if err := sl.sh.RestoreMeta(sink.meta, sink.metaEpoch); err != nil {
		return fail(err)
	}
	// Persist the migrated state as the shard's first durable checkpoint:
	// a crash after commit must recover the imported shard, not the empty
	// creation state.
	if err := sl.sh.ForceCheckpoint(); err != nil {
		return fail(err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.man.Epoch != sink.begin.Epoch {
		// The node's placement moved while the shard streamed: installing
		// would regress the epoch. Discard the import (retired so the
		// teardown never seals into the source's still-live epoch domain).
		return fail(fmt.Errorf("node epoch moved to %d while shard %d staged (began at %d)", n.man.Epoch, s, sink.begin.Epoch))
	}
	n.h.adoptSlot(int(s), sl)
	n.man = n.man.WithOwner(int(s), n.addr, newEpoch)
	return n.persistLocked()
}

// --- outbound migration (source driver) --------------------------------

// migrateDialTimeout bounds the TCP dial to the joining node.
const migrateDialTimeout = 10 * time.Second

// Migrate pushes an owned shard to the node at target and cuts ownership
// over: stream a consistent snapshot while the shard keeps serving, then
// under a brief per-shard barrier send the teed write tail plus the exact
// sealed engine state, commit on the target, and flip this node's
// placement to the bumped epoch. On success the surrendered shard is
// retired (its sealing-epoch domain now belongs to the target) and
// requests for it answer wrong-epoch until clients refetch the manifest.
//
// Failure before the commit frame aborts cleanly: the target discards its
// staging session and this node resumes serving the shard, placement
// unchanged. Failure at or after the commit frame is ambiguous (the
// target may own the shard) and fail-stops the shard here — neither node
// serves it until an operator resolves which side holds it; serving it
// from both, or re-entering its surrendered sealing-epoch domain, would
// be worse than unavailability.
func (n *ClusterNode) Migrate(shardIdx int, target string) error {
	n.migMu.Lock()
	defer n.migMu.Unlock()
	if target == n.addr {
		return fmt.Errorf("palermo: migrate: target %s is this node", target)
	}
	var sl *slot
	n.mu.RLock()
	if shardIdx >= 0 && shardIdx < n.Shards() {
		sl = n.h.slots[shardIdx]
	}
	epoch := n.man.Epoch
	n.mu.RUnlock()
	if sl == nil {
		return fmt.Errorf("palermo: migrate: node %s does not own shard %d", n.addr, shardIdx)
	}
	nc, err := net.DialTimeout("tcp", target, migrateDialTimeout)
	if err != nil {
		return fmt.Errorf("palermo: migrate: dial %s: %w", target, err)
	}
	defer nc.Close()
	mc := &migrateConn{nc: nc}
	if err := mc.roundTrip(wire.OpMigrateBegin, wire.AppendMigrateBeginReq(nil, wire.MigrateBegin{
		Shard:       uint32(shardIdx),
		Stride:      uint32(n.Shards()),
		Blocks:      n.Blocks(),
		ShardBlocks: n.h.router.ShardBlocks(shardIdx),
		Epoch:       epoch,
	})); err != nil {
		return fmt.Errorf("palermo: migrate begin: %w", err)
	}

	// Phase 1: snapshot + arm the tee in one barrier (their union covers
	// the write stream exactly once), then stream the snapshot while the
	// shard keeps serving.
	var snap []shard.SealedBlock
	var expErr error
	sh := sl.sh
	if err := sl.svc.Sync(func() {
		snap, expErr = sh.ExportBlocks()
		if expErr == nil {
			sh.StartTee()
		}
	}); err != nil {
		return fmt.Errorf("palermo: migrate: %w", err)
	}
	if expErr != nil {
		return fmt.Errorf("palermo: migrate: %w", expErr)
	}
	if err := mc.sendBlocks(uint32(shardIdx), snap); err != nil {
		n.abortMigration(mc, sl, shardIdx, false)
		return fmt.Errorf("palermo: migrate snapshot: %w", err)
	}

	// Cutover barrier: stop admitting requests for this shard, drain what
	// is queued, and capture the tail + exact engine state.
	n.mu.Lock()
	sl.held = true
	n.mu.Unlock()
	var tail []shard.SealedBlock
	var meta []byte
	var metaEpoch uint64
	if err := sl.svc.Sync(func() {
		tail = sh.StopTee()
		meta, metaEpoch, expErr = sh.ExportMeta()
	}); err != nil {
		n.abortMigration(mc, sl, shardIdx, true)
		return fmt.Errorf("palermo: migrate: %w", err)
	}
	if expErr != nil {
		n.abortMigration(mc, sl, shardIdx, true)
		return fmt.Errorf("palermo: migrate: %w", expErr)
	}
	if err := mc.sendBlocks(uint32(shardIdx), tail); err != nil {
		n.abortMigration(mc, sl, shardIdx, true)
		return fmt.Errorf("palermo: migrate tail: %w", err)
	}
	if err := mc.sendMeta(uint32(shardIdx), metaEpoch, meta); err != nil {
		n.abortMigration(mc, sl, shardIdx, true)
		return fmt.Errorf("palermo: migrate meta: %w", err)
	}

	// Commit. From the moment the frame is on the wire, failure no longer
	// means "the target doesn't have the shard" — fail-stop, don't abort.
	if err := mc.roundTrip(wire.OpMigrateCommit, wire.AppendMigrateCommitReq(nil, uint32(shardIdx), epoch+1)); err != nil {
		n.failStop(sl, shardIdx)
		return fmt.Errorf("palermo: migrate commit failed after the commit frame was sent; shard %d fail-stopped on this node (the target may own it — resolve placement manually): %w", shardIdx, err)
	}

	// Committed: flip placement, then retire the surrendered shard. Its
	// sealing-epoch domain now continues on the target, so this side must
	// never seal again (Retire suppresses the farewell checkpoint).
	n.mu.Lock()
	n.h.slots[shardIdx] = nil
	n.man = n.man.WithOwner(shardIdx, target, epoch+1)
	perr := n.persistLocked()
	n.mu.Unlock()
	n.retireSlot(sl, shardIdx)
	return perr
}

// retireSlot captures a surrendered shard's final trace, retires it, and
// parks its drained service for merged stats.
func (n *ClusterNode) retireSlot(sl *slot, shardIdx int) {
	lt := sl.leafTrace(shardIdx)
	sl.onWorker(sl.sh.Retire)
	sl.svc.Close()
	n.mu.Lock()
	n.retired = append(n.retired, sl.svc)
	if n.h.traceOn {
		n.retiredTraces = append(n.retiredTraces, lt)
	}
	n.mu.Unlock()
}

// failStop removes a shard whose migration commit outcome is unknown:
// neither serve it (the target may own it) nor checkpoint it (the target
// may continue its sealing-epoch domain).
func (n *ClusterNode) failStop(sl *slot, shardIdx int) {
	n.mu.Lock()
	n.h.slots[shardIdx] = nil
	n.mu.Unlock()
	n.retireSlot(sl, shardIdx)
}

// abortMigration unwinds a pre-commit failure: best-effort Abort to the
// target, discard the tee, and (if the cutover barrier was up) resume
// serving the shard.
func (n *ClusterNode) abortMigration(mc *migrateConn, sl *slot, shardIdx int, barrier bool) {
	mc.roundTrip(wire.OpMigrateAbort, wire.AppendMigrateAbortReq(nil, uint32(shardIdx))) // best-effort
	sl.onWorker(func() { sl.sh.StopTee() })
	if barrier {
		n.mu.Lock()
		sl.held = false
		n.mu.Unlock()
	}
}

// migrateConn is the source's raw, strictly sequential migration stream:
// one request frame on the wire at a time, each answered before the next
// (ordering is the correctness anchor for snapshot-then-tail).
type migrateConn struct {
	nc    net.Conn
	reqID uint64
}

func (mc *migrateConn) roundTrip(op byte, payload []byte) error {
	mc.reqID++
	_, err := roundTrip(mc.nc, op, mc.reqID, payload)
	return err
}

// sendBlocks streams sealed blocks in MaxMigrateBlocks-sized frames (an
// empty set sends nothing).
func (mc *migrateConn) sendBlocks(s uint32, blocks []shard.SealedBlock) error {
	for off := 0; off < len(blocks); off += wire.MaxMigrateBlocks {
		end := off + wire.MaxMigrateBlocks
		if end > len(blocks) {
			end = len(blocks)
		}
		recs := make([]wire.MigrateBlock, 0, end-off)
		for _, b := range blocks[off:end] {
			recs = append(recs, wire.MigrateBlock{Local: b.Local, Epoch: b.Epoch, Ct: b.Ct})
		}
		payload, err := wire.AppendMigrateBlocksReq(nil, s, recs)
		if err != nil {
			return err
		}
		if err := mc.roundTrip(wire.OpMigrateBlocks, payload); err != nil {
			return err
		}
	}
	return nil
}

// sendMeta streams the sealed engine-state blob in MaxMetaChunk-sized
// frames.
func (mc *migrateConn) sendMeta(s uint32, metaEpoch uint64, meta []byte) error {
	total := uint32(len(meta))
	for off := uint32(0); off < total; {
		end := off + wire.MaxMetaChunk
		if end > total {
			end = total
		}
		payload, err := wire.AppendMigrateMetaReq(nil, s, metaEpoch, total, off, meta[off:end])
		if err != nil {
			return err
		}
		if err := mc.roundTrip(wire.OpMigrateMeta, payload); err != nil {
			return err
		}
		off = end
	}
	return nil
}
