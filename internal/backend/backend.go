// Package backend defines the pluggable block-state storage interface of
// the oblivious store: the untrusted party of the paper's threat model
// (§VI), which holds sealed payloads and — for durable implementations —
// an opaque, controller-sealed metadata checkpoint.
//
// A Backend stores (shard-local id, ciphertext, epoch) triples and is
// addressed by shard-local id: a shard's read is one Get at the block's id
// and no Put, its write one Put. The backend therefore sees which blocks
// are accessed, how often, and whether by a read or a write, not the
// uniform tree paths of §VI: 4000 reads of one id made 4000 Gets at one
// address and 0 Puts. ROADMAP item 2 moves payloads into tree slots so the
// backend sees an ORAM. Ciphertexts are AES-CTR sealed under per-seal
// unique IVs, and persisting the triples adds nothing to what the calls
// themselves show (DESIGN.md §7). Controller
// metadata (position maps, stash residency) is the opposite — trusted
// secrets — so Checkpoint only ever receives it pre-sealed as an opaque
// blob.
//
// Implementations: memory (process-private, the default), wal (a
// CRC-framed append-only log with group-committed fsync and compacted
// snapshots, each block read back where its record lies, surviving
// restarts and crashes) and blockfile (one slot per block in a file, read
// back on demand). memory keeps its blocks in package slab; the durable
// engines read theirs in place from their own files.
//
// A Backend is confined to its shard's worker goroutine, exactly like the
// ORAM engine above it, so implementations need no internal locking.
package backend

// Sealed is one sealed block as the untrusted storage sees it.
//
// Ownership: Put and PutMany copy Ct before they return, so the caller owns
// its buffer again and may seal the next block into the same bytes (the
// shard does). A Sealed that Get or GetMany returns belongs to the backend:
// its Ct may alias the backend's own storage or a buffer it reuses, must
// not be written, and is valid only until the next call on the backend —
// whoever keeps a block longer than that (a migration snapshot, a tee)
// copies it. The results of one GetMany are valid together: each position
// has bytes of its own.
type Sealed struct {
	Ct    []byte
	Epoch uint64
}

// EpochReserveLocal is the reserved Local value marking an epoch
// reservation in a recovered tail: no block was written, but the sealing
// counter must advance to at least Epoch. Durable backends log one before
// persisting each checkpoint so that a crash mid-checkpoint can never
// lead a recovered sealer to re-issue the checkpoint blob's IV. Real ids
// can never collide with it (capacities are capped far below 2^64).
const EpochReserveLocal = ^uint64(0)

// TailOp is one logged write a durable backend recovered after the last
// checkpoint. The shard replays tail ops through its ORAM engine so the
// protocol metadata (leaf maps, stash, bucket counters) re-converges with
// the recovered sealed payloads. A TailOp with Local == EpochReserveLocal
// carries no payload and only advances the sealing counter.
type TailOp struct {
	Local uint64
	Epoch uint64
}

// PutOp is one sealed-block store of a vector put: the unit a whole-access
// (or whole-batch) path write is expressed in.
type PutOp struct {
	Local uint64
	Sb    Sealed
}

// VectorBackend is the vector extension of Backend: whole-access block
// sets move in one call instead of one call per block, so a durable
// implementation can frame and commit them as a unit (the WAL appends one
// CRC-framed record batch per PutMany and group-commits per access rather
// than per block) and a remote one could round-trip them in one message.
// Backends that do not implement it are adapted by Vector with per-block
// loops.
type VectorBackend interface {
	Backend
	// GetMany looks up locals[i] into out[i]/ok[i] for every i. The three
	// slices must have equal length; out and ok are caller-allocated so a
	// hot path can reuse them. Each position's Ct has bytes of its own
	// (see Sealed).
	GetMany(locals []uint64, out []Sealed, ok []bool)
	// PutMany stores every op, in order, as one unit. Durable
	// implementations append the whole vector under a single batch frame
	// and count it as one unit of the group-commit policy. On error the
	// backend's single-Put failure semantics apply to the whole vector (a
	// durable backend wedges; the in-memory state is not partially
	// updated unless the implementation documents otherwise).
	PutMany(ops []PutOp) error
}

// Vector returns b's native vector form when it implements VectorBackend,
// or a loop adapter otherwise — so third-party Backend implementations
// keep working under the shard's vector writes unchanged.
func Vector(b Backend) VectorBackend {
	if vb, ok := b.(VectorBackend); ok {
		return vb
	}
	return loopVector{b}
}

// loopVector adapts a scalar Backend with per-block loops. PutMany is not
// atomic: a mid-vector error leaves earlier puts applied (exactly what N
// scalar Puts would have done). GetMany copies every block but the last,
// since a Get result is valid only until the next call.
type loopVector struct{ Backend }

func (v loopVector) GetMany(locals []uint64, out []Sealed, ok []bool) {
	for i, local := range locals {
		if out[i], ok[i] = v.Get(local); ok[i] && i < len(locals)-1 {
			out[i].Ct = append([]byte(nil), out[i].Ct...)
		}
	}
}

func (v loopVector) PutMany(ops []PutOp) error {
	for _, op := range ops {
		if err := v.Put(op.Local, op.Sb); err != nil {
			return err
		}
	}
	return nil
}

// Backend stores a shard's sealed blocks keyed by shard-local id, plus the
// shard's sealed metadata checkpoints.
type Backend interface {
	// Get returns the sealed block stored under local, if any; the result
	// is valid until the next call on the backend (see Sealed).
	Get(local uint64) (Sealed, bool)
	// Put stores a copy of a sealed block under local, overwriting any
	// prior value. Durable implementations append the write to stable storage subject to
	// their group-commit policy; an un-fsynced tail may be lost on crash.
	Put(local uint64, sb Sealed) error
	// Len returns the number of distinct ids currently stored.
	Len() int
	// Durable reports whether the backend survives process exit. Shards
	// skip checkpoint encoding entirely for non-durable backends.
	Durable() bool
	// Checkpoint durably persists meta (an opaque, controller-sealed
	// metadata blob encrypted under metaEpoch) together with every sealed
	// block currently stored, then compacts the log. After a successful
	// Checkpoint, recovery needs no tail replay.
	Checkpoint(meta []byte, metaEpoch uint64) error
	// Recovered returns what opening the backend found: the meta blob of
	// the last completed Checkpoint (nil if none) and the ordered log tail
	// written after it (empty after a clean Close). It hands them over:
	// the backend keeps neither, and a second call returns no blob and no
	// tail. Checkpoint does not retain meta either.
	Recovered() (meta []byte, metaEpoch uint64, tail []TailOp)
	// Flush forces buffered writes to stable storage (no-op when not
	// durable).
	Flush() error
	// Close flushes and releases resources. The backend is unusable after.
	Close() error
}

// Commit is one group commit that a durable backend runs off its owner's
// goroutine: Done closes when the commit settles, and Err then reports its
// outcome. A write the commit covers is durable only once Done has closed
// and Err is nil.
type Commit struct {
	done chan struct{}
	err  error
}

// NewCommit returns an unsettled commit.
func NewCommit() *Commit { return &Commit{done: make(chan struct{})} }

// Settle records the commit's outcome and closes Done. It is called once,
// by whoever ran the commit.
func (c *Commit) Settle(err error) {
	c.err = err
	close(c.done)
}

// Done returns a channel that closes when the commit settles.
func (c *Commit) Done() <-chan struct{} { return c.done }

// Err waits for the commit to settle and returns its error.
func (c *Commit) Err() error {
	<-c.done
	return c.err
}

// Committer is implemented by a durable backend whose Put or PutMany can
// return while the group commit that makes it durable is still running.
// The backend's owner must then hold the write's acknowledgment until that
// commit settles.
type Committer interface {
	// InFlight returns the commit the backend last started, or nil. A
	// commit that settled successfully is dropped by the backend's next
	// write; one that failed stays reported, because the backend is wedged
	// and nothing written since will ever be committed.
	InFlight() *Commit
}
