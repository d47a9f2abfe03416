// Package shard partitions an oblivious block store across S independent
// ORAM shards so that independent requests can execute concurrently — the
// service-layer mirror of the paper's observation that ORAM throughput
// scales with request-level parallelism (the PE mesh exploits it inside one
// controller; sharding exploits it across controllers).
//
// Routing is a deterministic pure function of the public block id
// (round-robin striping: shard = id mod S, local = id div S), so the shard
// a request lands on reveals nothing beyond the id the client already
// presented in plaintext at the trusted service boundary. Each shard owns a
// private Ring engine, sealer counter-domain, and derived RNG seed. Within
// a shard the engine's leaf sequence is uniform, independent and remapped
// per access, but the backend does not see it: the shard addresses its
// backend by local id (Read is one Get, Write one Put; package backend).
// DESIGN.md §6 states what the backend observes and ROADMAP item 2 how it
// is to see an ORAM.
package shard

import (
	"errors"
	"fmt"

	"palermo/internal/backend"
	"palermo/internal/backend/memory"
	"palermo/internal/crypt"
	"palermo/internal/oram"
)

// BlockBytes is the shard payload granularity (one cache line).
const BlockBytes = crypt.BlockBytes

// Router deterministically maps public block ids onto shards.
//
// Striping (id mod S) rather than range-partitioning keeps popular
// low-numbered ids — the head of any Zipfian workload — spread across all
// shards instead of piling onto shard 0.
type Router struct {
	shards int
	blocks uint64
}

// NewRouter builds a router over a capacity of blocks ids and S shards.
func NewRouter(blocks uint64, shards int) (Router, error) {
	if blocks == 0 {
		return Router{}, fmt.Errorf("shard: capacity must be > 0 blocks")
	}
	if shards < 1 {
		return Router{}, fmt.Errorf("shard: shard count must be >= 1, got %d", shards)
	}
	if uint64(shards) > blocks {
		return Router{}, fmt.Errorf("shard: %d shards exceed %d blocks (a shard would be empty)", shards, blocks)
	}
	return Router{shards: shards, blocks: blocks}, nil
}

// Shards returns the shard count.
func (r Router) Shards() int { return r.shards }

// Blocks returns the total capacity in blocks.
func (r Router) Blocks() uint64 { return r.blocks }

// Route maps a public block id to its (shard, shard-local id) coordinates.
// It does not range-check id; callers validate against Blocks().
func (r Router) Route(id uint64) (int, uint64) {
	return int(id % uint64(r.shards)), id / uint64(r.shards)
}

// Global inverts Route: the public id of a shard's local block.
func (r Router) Global(s int, local uint64) uint64 {
	return local*uint64(r.shards) + uint64(s)
}

// ShardBlocks returns shard s's capacity: the number of public ids in
// [0, Blocks) congruent to s mod Shards.
func (r Router) ShardBlocks(s int) uint64 {
	if uint64(s) >= r.blocks {
		return 0
	}
	return (r.blocks - uint64(s) + uint64(r.shards) - 1) / uint64(r.shards)
}

// DeriveSeed returns shard i's engine/leaf-selection seed: one splitmix64
// scramble of (base, i) so that adjacent base seeds or adjacent shard
// indices still yield decorrelated per-shard RNG streams.
func DeriveSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// TraceOp is one engine-touching operation in a shard's trace.
type TraceOp struct {
	Local uint64
	Write bool
}

// Trace records the engine-touching operation subsequence a shard served
// and the data-tree leaf each access exposed. Per-shard determinism (the
// §5 contract extended to the service layer) means replaying Ops serially
// into a fresh identically-seeded shard reproduces Leaves exactly.
type Trace struct {
	Ops    []TraceOp
	Leaves []uint64
}

// Counters is a snapshot of a shard's operation and traffic counters.
type Counters struct {
	Reads, Writes         uint64 // store operations served by the engine
	DRAMReads, DRAMWrites uint64 // 64-byte line movements the protocol generated
	StashPeak             int

	// TreeTopHits counts line movements the engine's tree-top cache
	// absorbed (traffic against resident top levels that never left the
	// controller; bytes saved = 64 * TreeTopHits).
	TreeTopHits uint64
}

// DefaultCheckpointEvery is how many writes a durable shard absorbs
// between automatic WAL-compaction checkpoints.
const DefaultCheckpointEvery = 4096

// Shard is one oblivious store partition: a private Palermo-variant Ring
// engine plus a private sealer counter-domain, with sealed payloads stored
// through a pluggable backend (process-private memory by default, durable
// WAL optionally). Not safe for concurrent use — the service layer confines
// each shard to one worker goroutine (the same engine-per-goroutine
// discipline as the sweep runner).
type Shard struct {
	index   int // shard coordinate (the id residue this shard serves)
	stride  int // total shard count (for local -> global id recovery)
	blocks  uint64
	engine  *oram.Ring
	sealer  *crypt.Sealer
	be      backend.VectorBackend
	durable bool

	// Vector-write state (WriteMany): the sealed puts staged for the next
	// PutMany, never non-empty between calls; stage holds their ciphertexts
	// (put i in block i — the backend copies what it stores, so every write
	// seals into the same arena and allocates no ciphertext); lenFloor is
	// the last stored-block count the backend reported (the count only
	// grows), which spares the checkpoint trigger a flush per write; failed
	// is the first vector failure, after which the engine is ahead of the
	// backend and the shard serves nothing.
	puts     []backend.PutOp
	stage    []byte // maxVector sealed blocks
	lenFloor uint64
	failed   error

	ckptEvery uint64 // writes between automatic checkpoints (durable only)
	sinceCkpt uint64
	stateLen  int // bytes of the last checkpoint plaintext, which sizes the next one's buffer
	closed    bool
	retired   bool // surrendered by a completed migration: checkpoints become no-ops (migrate.go)

	// Migration tee state (migrate.go): while teeOn, every sealed write is
	// also appended to teeBuf for the in-flight migration's tail.
	teeOn  bool
	teeBuf []SealedBlock

	reads, writes      uint64
	trafficR, trafficW uint64
	topHitsBase        uint64 // checkpointed TopHits (engine counts since open)

	trace *Trace
}

// engineConfig is the engine every shard runs: Palermo's over blocks lines
// with the given seed. Nothing in the serving path replays per-access DRAM
// address lists — shards consume only the plan's counts, value, and leaf —
// so the engine runs in count-only traffic mode and skips the per-access
// address-slice growth (the simulator keeps full address plans).
func engineConfig(blocks, seed uint64) oram.RingConfig {
	cfg := oram.PalermoRingConfig()
	cfg.NLines = blocks
	cfg.Seed = seed
	cfg.CountTraffic = true
	return cfg
}

// New builds shard index of stride total shards with the given local
// capacity and the exact engine seed to use (callers building a sharded
// set derive per-shard seeds with DeriveSeed). All shards share the
// AES key; IV uniqueness across shards holds because blocks are sealed
// under their global id (disjoint across shards), so independent
// per-shard epoch counters can never collide on an (addr, epoch) pair.
//
// be supplies sealed-payload storage; nil selects the default in-memory
// backend, sized to blocks (the pre-backend behavior, byte for byte). A durable backend
// that recovered a checkpoint and/or a log tail is folded in here: the
// engine restores the checkpointed metadata exactly, then replays the
// tail's writes through the full protocol so metadata and payloads
// re-converge (see Close for what a clean shutdown persists).
func New(index, stride int, blocks uint64, key []byte, engineSeed uint64, be backend.Backend) (*Shard, error) {
	if index < 0 || stride < 1 || index >= stride {
		return nil, fmt.Errorf("shard: invalid coordinates index=%d stride=%d", index, stride)
	}
	if blocks == 0 {
		return nil, fmt.Errorf("shard: shard %d has zero capacity", index)
	}
	sealer, err := crypt.NewSealer(key)
	if err != nil {
		return nil, err
	}
	engine, err := oram.NewRing(engineConfig(blocks, engineSeed))
	if err != nil {
		return nil, err
	}
	if engine.Config().DataSlotLines != 1 {
		// The shard stores one sealed payload per engine PA and checks every
		// read against the epoch the engine holds for it; a wider engine
		// keeps one epoch per line group — refuse loudly instead.
		return nil, fmt.Errorf("shard: engine DataSlotLines must be 1, got %d", engine.Config().DataSlotLines)
	}
	if be == nil {
		be = memory.NewSized(blocks)
	}
	s := &Shard{
		index:     index,
		stride:    stride,
		blocks:    blocks,
		engine:    engine,
		sealer:    sealer,
		be:        backend.Vector(be),
		durable:   be.Durable(),
		stage:     make([]byte, maxVector*BlockBytes),
		ckptEvery: DefaultCheckpointEvery,
	}
	meta, metaEpoch, tail := be.Recovered()
	if meta != nil || len(tail) > 0 {
		if err := s.recover(meta, metaEpoch, tail); err != nil {
			return nil, err
		}
	}
	if be.Durable() && meta == nil {
		// Establish a sealed snapshot the moment a durable directory has
		// none — at creation, and again if a crash interrupted the
		// creation checkpoint itself (tail recovered, no snapshot yet).
		// Every later open then runs the checkpoint-decode key check, so a
		// wrong key fails loudly instead of opening sealed payloads into
		// silent garbage plaintext (AES-CTR carries no integrity).
		if err := s.checkpoint(); err != nil {
			be.Close()
			return nil, err
		}
	}
	return s, nil
}

// SetCheckpointEvery tunes how many writes pass between automatic
// WAL-compaction checkpoints (0 disables them; Close still checkpoints).
// Call before the shard starts serving.
func (s *Shard) SetCheckpointEvery(n uint64) { s.ckptEvery = n }

// DataLeaves returns the data-tree leaf count of the shard's engine (the
// modulus for uniformity analysis of recorded leaf traces).
func (s *Shard) DataLeaves() uint64 {
	return s.engine.Space(0).Geo.NumLeaves()
}

// metaAddr is the shard's reserved sealing address for checkpoint blobs:
// counted down from ^0 per shard so it can never collide with a block's
// global id (capped at 2^40) and never collides across shards sharing one
// key even though their epoch domains overlap.
func (s *Shard) metaAddr() uint64 { return ^uint64(0) - uint64(s.index) }

// Blocks returns the shard-local capacity.
func (s *Shard) Blocks() uint64 { return s.blocks }

// EnableTrace starts recording the operation/leaf trace. Call before the
// shard starts serving (it is owned by the worker afterwards).
func (s *Shard) EnableTrace() { s.trace = &Trace{} }

// Trace returns the recorded trace (nil unless EnableTrace was called).
// Only safe once the shard is quiesced (service closed or via Sync).
func (s *Shard) Trace() *Trace { return s.trace }

// maxVector caps the sealed puts WriteMany hands the backend in one
// PutMany: the blockfile engine's longest coalesced slot run, and far under
// the WAL's 65 536-record batch limit.
const maxVector = 128

// EnablePipeline does nothing: a shard runs every operation to completion
// on its caller's goroutine and starts none of its own (DESIGN.md §9).
//
// Deprecated: benchmark/layers still calls it; delete with ROADMAP item
// 5(a).
func (s *Shard) EnablePipeline(int) {}

// unusable reports why the shard can serve nothing: it is closed, or a
// vector write failed after the engine had advanced past it.
func (s *Shard) unusable() error {
	if s.closed {
		return fmt.Errorf("palermo: shard %d is closed", s.index)
	}
	return s.failed
}

// checkWrite rejects a write before it touches the sealer or the engine.
//
// Errors here surface verbatim through the public Store/ShardedStore API,
// so they carry the palermo: prefix and name the global (public) block id,
// never the shard-local one.
func (s *Shard) checkWrite(local uint64, data []byte) error {
	if err := s.unusable(); err != nil {
		return err
	}
	if local >= s.blocks {
		return fmt.Errorf("palermo: internal: block %d outside shard %d capacity %d", s.Global(local), s.index, s.blocks)
	}
	if len(data) != BlockBytes {
		return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockBytes, len(data))
	}
	return nil
}

// applyWrite runs the engine transition of a write sealed under epoch and
// counts it.
func (s *Shard) applyWrite(local, epoch uint64) {
	plan := s.engine.Access(local, true, epoch)
	s.writes++
	s.trafficR += uint64(plan.Reads())
	s.trafficW += uint64(plan.Writes())
	s.record(local, true, plan.DataLeaf)
}

// Write stores a 64-byte block obliviously under the shard-local id: seal,
// one backend Put, the engine transition, the checkpoint trigger. A Put the
// backend refuses leaves the engine where it was.
func (s *Shard) Write(local uint64, data []byte) error {
	if err := s.checkWrite(local, data); err != nil {
		return err
	}
	global := s.Global(local)
	ct := s.stage[:BlockBytes]
	epoch, err := s.sealer.SealInto(ct, global, data)
	if err != nil {
		return err
	}
	if err := s.be.Put(local, backend.Sealed{Ct: ct, Epoch: epoch}); err != nil {
		return fmt.Errorf("palermo: backend write of block %d: %w", global, err)
	}
	s.teeWrite(local, ct, epoch)
	s.applyWrite(local, epoch)
	return s.maybeCheckpoint(global, nil)
}

// WriteMany is the vector form of Write: it stores data[i] under locals[i]
// for every i and reports each write's outcome in errs[i] (three slices of
// one length). Sealing and the engine transitions run in slice order, so
// ciphertexts, leaf traces, counters and checkpoint bytes are those of the
// same writes made one Write at a time; what differs is that the sealed
// puts reach the backend as PutMany vectors of at most maxVector, which a
// durable engine frames, coalesces and commits as a unit. No put is left
// undelivered when WriteMany returns. A vector the backend refuses fails
// every write in it, and because the engine has already advanced past
// them the shard serves nothing afterwards (Close reports the cause).
func (s *Shard) WriteMany(locals []uint64, data [][]byte, errs []error) {
	first := 0 // errs[first:i+1] are the outcomes of the writes staged in s.puts
	for i, local := range locals {
		if errs[i] = s.checkWrite(local, data[i]); errs[i] != nil {
			continue
		}
		global := s.Global(local)
		ct := s.stage[len(s.puts)*BlockBytes:][:BlockBytes]
		epoch, err := s.sealer.SealInto(ct, global, data[i])
		if err != nil {
			errs[i] = err
			continue
		}
		s.puts = append(s.puts, backend.PutOp{Local: local, Sb: backend.Sealed{Ct: ct, Epoch: epoch}})
		s.applyWrite(local, epoch)
		errs[i] = s.maybeCheckpoint(global, errs[first:i+1])
		if len(s.puts) == maxVector {
			s.flush(errs[first : i+1])
		}
		if len(s.puts) == 0 {
			first = i + 1
		}
	}
	s.flush(errs[first:])
}

// flush hands the staged puts to the backend as one vector, then to a live
// migration tee; staged holds their writes' outcomes. A refused vector
// fails each of those writes and the shard.
func (s *Shard) flush(staged []error) error {
	if len(s.puts) == 0 {
		return nil
	}
	err := s.be.PutMany(s.puts)
	if err != nil {
		err = fmt.Errorf("palermo: backend write of %d blocks from block %d: %w", len(s.puts), s.Global(s.puts[0].Local), err)
		s.failed = err
		for i := range staged {
			if staged[i] == nil {
				staged[i] = err
			}
		}
	} else if s.teeOn {
		for _, p := range s.puts {
			s.teeWrite(p.Local, p.Sb.Ct, p.Sb.Epoch)
		}
	}
	s.puts = s.puts[:0]
	return err
}

// maybeCheckpoint runs the deterministic compaction trigger after a
// durable write; staged is the outcomes of the writes WriteMany has staged
// (nil from Write). Compact only once the log tail is also a meaningful
// fraction of the stored blocks: a snapshot rewrites every block, so a
// pure write-count trigger would cost O(store size) I/O every ckptEvery
// writes on a populated store. This keeps compaction I/O amortized O(1)
// per logged write. The stored-block count decides, so the staged puts are
// delivered before it is read: the trigger fires at the same points of the
// operation stream, over the same stored set, whether the writes arrive
// one at a time or as a vector. The count never shrinks, so while the tail
// is short of a quarter of the last count read there is nothing to ask.
func (s *Shard) maybeCheckpoint(global uint64, staged []error) error {
	if s.ckptEvery == 0 || !s.durable {
		return nil
	}
	s.sinceCkpt++
	if s.sinceCkpt < s.ckptEvery || s.sinceCkpt*4 < s.lenFloor {
		return nil
	}
	if err := s.flush(staged); err != nil {
		return err
	}
	s.lenFloor = uint64(s.be.Len())
	if s.sinceCkpt*4 < s.lenFloor {
		return nil
	}
	if err := s.checkpoint(); err != nil {
		return fmt.Errorf("palermo: checkpoint after block %d: %w", global, err)
	}
	return nil
}

// Read fetches a block obliviously by shard-local id. Unwritten blocks read
// as zeros after a full-protocol access, so existence is not observable.
func (s *Shard) Read(local uint64) ([]byte, error) {
	if err := s.unusable(); err != nil {
		return nil, err
	}
	if local >= s.blocks {
		return nil, fmt.Errorf("palermo: internal: block %d outside shard %d capacity %d", s.Global(local), s.index, s.blocks)
	}
	plan := s.engine.Access(local, false, 0)
	s.reads++
	s.trafficR += uint64(plan.Reads())
	s.trafficW += uint64(plan.Writes())
	s.record(local, false, plan.DataLeaf)
	sb, ok := s.be.Get(local)
	if !ok {
		return make([]byte, BlockBytes), nil
	}
	if plan.Val != sb.Epoch {
		return nil, fmt.Errorf("palermo: protocol state diverged for block %d (epoch %d != %d)",
			s.Global(local), plan.Val, sb.Epoch)
	}
	return s.sealer.Open(s.Global(local), sb.Epoch, sb.Ct)
}

// Global returns the public id of a shard-local block.
func (s *Shard) Global(local uint64) uint64 {
	return local*uint64(s.stride) + uint64(s.index)
}

// Snapshot returns the shard's counters. Must run on the owning worker
// goroutine (serve.Service.Sync) or after quiescence.
func (s *Shard) Snapshot() Counters {
	return Counters{
		Reads: s.reads, Writes: s.writes,
		DRAMReads: s.trafficR, DRAMWrites: s.trafficW,
		StashPeak:   s.engine.StashMax(0),
		TreeTopHits: s.topHitsBase + s.engine.TopHits(),
	}
}

// checkpoint seals the shard's complete controller metadata (sealState)
// and hands it to the backend together with an implicit copy of every
// sealed block (Backend.Checkpoint compacts the log around it).
func (s *Shard) checkpoint() error {
	// A retired shard (surrendered by migration) must never seal another
	// checkpoint blob: the new owner continues this shard's sealing-epoch
	// counter, so a farewell blob here would reuse its next IV (migrate.go).
	if !s.durable || s.retired {
		return nil
	}
	blob, blobEpoch, err := s.sealState()
	if err != nil {
		return err
	}
	if err := s.be.Checkpoint(blob, blobEpoch); err != nil {
		return err
	}
	s.sinceCkpt = 0
	return nil
}

// recover folds a durable backend's recovered state into the freshly built
// shard: restore the checkpointed engine/sealer/counters exactly, then
// replay the log tail's writes through the full ORAM protocol so the
// engine's per-block epochs re-converge with the recovered payloads. The
// replayed accesses draw fresh (deterministic) leaves — recovery is a new
// protocol history, not a replay of the lost one, which is exactly what
// obliviousness requires (DESIGN.md §7).
func (s *Shard) recover(meta []byte, metaEpoch uint64, tail []backend.TailOp) error {
	if meta != nil {
		if metaEpoch >= 1<<40 || len(meta) > crypt.MaxBlobBytes {
			// Out of the sealing scheme's domain: no shard this code built
			// could have written it. Surface the corrupt-store error path
			// instead of tripping crypt's internal-invariant panics.
			return fmt.Errorf("shard: checkpoint metadata out of range (epoch %d, %d bytes): corrupt store", metaEpoch, len(meta))
		}
		plain := s.sealer.Blob(s.metaAddr(), metaEpoch, meta)
		if err := s.loadState(plain); err != nil {
			return err
		}
		s.stateLen = len(plain)
	}
	replayed := uint64(0)
	for _, op := range tail {
		if op.Local == backend.EpochReserveLocal {
			// Epoch reservation from an interrupted checkpoint: advance the
			// sealer so the reserved IV is never re-issued; no block moved.
			if op.Epoch > s.sealer.Epoch() {
				s.sealer.SetEpoch(op.Epoch)
			}
			continue
		}
		if op.Local >= s.blocks {
			return fmt.Errorf("shard: recovered write to block %d outside shard %d capacity %d",
				op.Local, s.index, s.blocks)
		}
		s.applyWrite(op.Local, op.Epoch) // no trace is armed yet
		replayed++
		if op.Epoch > s.sealer.Epoch() {
			s.sealer.SetEpoch(op.Epoch)
		}
	}
	// The replayed records are still in the log: prime the compaction
	// counter with them so a crash-looping service (always fewer than
	// CheckpointEvery writes per life) cannot grow the log — and the tail
	// replay time — without bound across restarts.
	s.sinceCkpt = replayed
	return nil
}

// Close checkpoints the shard's metadata (durable backends only) and
// releases the backend. After a clean Close, reopening the same directory
// restores the shard bit-exactly: payloads, protocol state, and traffic
// counters. Idempotent. Both the checkpoint's and the backend's close
// errors are surfaced — a wedged backend reports its root-cause error
// through Close, which must not be masked by the checkpoint's generic
// closed-guard failure. A shard that failed a vector write reports that
// failure again and writes no checkpoint: its engine is ahead of the
// backend, and the last checkpoint plus the log tail is the state to
// recover.
func (s *Shard) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.failed != nil {
		return errors.Join(s.failed, s.be.Close())
	}
	return errors.Join(s.checkpoint(), s.be.Close())
}

func (s *Shard) record(local uint64, write bool, leaf uint64) {
	if s.trace == nil {
		return
	}
	s.trace.Ops = append(s.trace.Ops, TraceOp{Local: local, Write: write})
	s.trace.Leaves = append(s.trace.Leaves, leaf)
}
