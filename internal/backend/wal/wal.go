// Package wal is the durable block-state backend: a CRC-framed append-only
// log of sealed writes with group-committed fsync, compacted periodically
// into an atomically-replaced snapshot file, and replayed on open so a
// store survives restarts and crashes.
//
// On-disk layout (one directory per shard; the lock, the log header, the
// record and snapshot framing and every recovery rule are the durable-log
// core's, package durable — this package adds what the payloads mean):
//
//	snapshot   core envelope, payload section = nBlocks |
//	           nBlocks × (local, epoch, ct[64]), ascending by local
//	           (any order loads: older versions wrote map order)
//	wal.log    core log of 84-byte records: local | epoch | ct[64] | crc32
//
// A PutMany vector of more than one block is framed as a record *batch*:
// a header record (local = batchLocal, epoch = member count) followed by
// the members as ordinary records. Batches are atomic under recovery —
// applied only when every member is intact, discarded whole when a crash
// tears them — so half a path write can never persist. Group commit
// counts records, not calls, so commit cadence matches the scalar path.
// Records are framed into the durable core's group-commit batch
// (durable.Batch): above GroupCommit 1 the PutMany that closes a batch
// hands it to the core's helper goroutine, which writes the records and
// fsyncs the log while the next accesses run, with at most one commit in
// flight and Flush/Checkpoint/Close settling it first (DESIGN.md §9).
//
// Recovery on Open loads the snapshot (if any), then replays the log's
// intact records; when a torn group-commit tail is cut, a durable epoch
// reservation covering the discarded records is folded in over it. What a
// crash loses is therefore exactly the writes the group-commit policy had
// not yet fsynced, and nothing else.
//
// The log records only (local id, ciphertext, epoch) in access order, what
// the backend's Put calls already show, so durability adds nothing to what
// the backend sees (DESIGN.md §7). That view is keyed by block id, not by
// tree path, so it shows the logical access pattern (package backend;
// ROADMAP item 2). The snapshot's metadata blob is controller state and
// arrives pre-sealed.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"palermo/internal/backend"
	"palermo/internal/backend/durable"
	"palermo/internal/backend/slab"
	"palermo/internal/crypt"
)

const (
	headerSize = durable.HeaderSize
	recordSize = 8 + 8 + crypt.BlockBytes + 4 // local, epoch, ct, crc
	logName    = "wal.log"
	snapName   = "snapshot"

	// batchLocal is the reserved Local value of a batch header record: the
	// record's epoch field carries the count of records that follow as one
	// atomic batch (a whole access's path write, appended by PutMany). Like
	// EpochReserveLocal, real block ids (capped at 2^40) can never collide
	// with it.
	batchLocal = ^uint64(0) - 1
)

var format = durable.Format{
	Engine:  "wal",
	LogName: logName, LogMagic: "PALWAL01",
	SnapName: snapName, SnapMagic: "PALSNP01",
	RecordSize: recordSize,
}

// Options tunes a WAL backend.
type Options struct {
	// GroupCommit is the number of Put records per fsync batch (default
	// durable.DefaultGroupCommit; 1 = synchronous durability for every
	// write). Above 1 the WAL acknowledges a write without waiting for its
	// commit, so a crash can lose two batches of acknowledged writes: the
	// one the helper is committing and the open one. A batch is
	// GroupCommit − 1 records plus the put that filled it, so scalar Puts
	// leave at most 2 × GroupCommit − 1 acknowledged records un-fsynced
	// (63 at the default 32), and a PutMany vector of v records that closed
	// the batch in flight adds v − 1 to that.
	GroupCommit int
	// CommitDepth is ignored: every WAL commits through the durable
	// core's batch, one commit in flight at most.
	//
	// Deprecated: kept only for callers that still set it
	// (benchmark/layers); delete with ROADMAP item 5(a).
	CommitDepth int
	// Capacity is the shard's block capacity, which sizes the in-memory
	// mirror's index (slab.New); ids at or beyond it are refused. Zero
	// means unknown: a direct index, ids below paged.DirectKeys.
	Capacity uint64
}

// Backend is a durable block-state backend over one directory.
type Backend struct {
	dir string
	opt Options

	blocks *slab.Slab // the RAM mirror of snapshot + log: every stored block

	// What load found, until Recovered hands it to the shard: the sealed
	// metadata blob of the last checkpoint (nil if none) and the log
	// records after it. metaEpoch and seq stay current across checkpoints.
	meta      []byte
	metaEpoch uint64
	tail      []backend.TailOp
	seq       uint64 // checkpoint sequence the current log follows

	logF    *os.File
	lockF   *os.File      // holds the directory's exclusive flock
	batch   durable.Batch // the open group-commit batch and the helper
	closed  bool          // Close called, or the backend wedged mid-operation
	failErr error         // the wedging error, surfaced again by Close

	durable.Fsync // commit-path (log) fsync telemetry; FsyncStats
}

// Open creates or recovers the backend rooted at dir. The directory is
// exclusively locked for the backend's lifetime; a second concurrent Open
// (same or different process) fails instead of corrupting the live log.
func Open(dir string, opt Options) (*Backend, error) {
	opt.GroupCommit = durable.GroupCommit(opt.GroupCommit)
	lock, err := format.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	b := &Backend{dir: dir, opt: opt, lockF: lock, blocks: slab.New(opt.Capacity)}
	if err := b.load(); err != nil {
		return nil, b.fail(err) // releases the lock
	}
	b.batch.Start(b.opt.GroupCommit, recordSize, b.commit, b.fail, nil)
	return b, nil
}

// syncLog is the commit's fsync; a variable so a test can stall it.
var syncLog = durable.TimedSync

// commit is one group commit: the batch's records in one write to the
// log, then the log's fsync. It runs on the helper, or on the owner at
// GroupCommit 1 and in Flush.
func (b *Backend) commit(recs []byte) error {
	if len(recs) > 0 {
		if _, err := b.logF.Write(recs); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := syncLog(&b.Fsync, b.logF); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// unlock releases the directory lock (closing the fd drops the flock).
func (b *Backend) unlock() {
	if b.lockF != nil {
		b.lockF.Close()
		b.lockF = nil
	}
}

// Get implements backend.Backend; the result aliases the mirror until the
// next Put of local.
func (b *Backend) Get(local uint64) (backend.Sealed, bool) { return b.blocks.Get(local) }

// GetMany implements backend.VectorBackend.
func (b *Backend) GetMany(locals []uint64, out []backend.Sealed, ok []bool) {
	b.blocks.GetMany(locals, out, ok)
}

// Len implements backend.Backend.
func (b *Backend) Len() int { return b.blocks.Len() }

// Durable implements backend.Backend.
func (b *Backend) Durable() bool { return true }

// Recovered implements backend.Backend, and hands the blob and the tail
// over: the shard folds them in once, and a backend that kept them would
// hold a checkpoint's worth of dead bytes for its lifetime.
func (b *Backend) Recovered() ([]byte, uint64, []backend.TailOp) {
	meta, tail := b.meta, b.tail
	b.meta, b.tail = nil, nil
	return meta, b.metaEpoch, tail
}

// validatePut rejects malformed, reserved-id or out-of-capacity puts
// before any byte is framed.
func (b *Backend) validatePut(local uint64, sb backend.Sealed) error {
	if local == backend.EpochReserveLocal || local == batchLocal {
		return fmt.Errorf("wal: block id %d is reserved", local)
	}
	if err := b.blocks.Check(local, sb); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Put implements backend.Backend: append a CRC-framed record and commit
// once every GroupCommit records — a vector of one, which PutMany frames
// as a plain record.
func (b *Backend) Put(local uint64, sb backend.Sealed) error {
	one := [1]backend.PutOp{{Local: local, Sb: sb}}
	return b.PutMany(one[:])
}

// PutMany implements backend.VectorBackend: the whole vector is appended
// as one CRC-framed record batch — a batch header naming the count, then
// one record per block, recovered all-or-nothing — and counts len(ops)
// records toward the group-commit policy (commit cadence is identical to
// len(ops) scalar Puts; only the framing differs). A single-op vector
// appends a plain record. The vector that closes a batch waits for the
// commit in flight, if any, and returns once the helper has its own.
func (b *Backend) PutMany(ops []backend.PutOp) error {
	if b.closed {
		return format.ClosedErr(b.failErr)
	}
	if len(ops) == 0 {
		return nil
	}
	if len(ops) > durable.MaxGroupCommit {
		// The batch header's count shares the recovery sanity bound; a
		// larger vector would be acknowledged now and rejected as mid-log
		// corruption at the next Open.
		return fmt.Errorf("wal: vector of %d blocks exceeds the %d-record batch limit", len(ops), durable.MaxGroupCommit)
	}
	if err := b.batch.Reap(); err != nil {
		return err
	}
	for _, op := range ops {
		if err := b.validatePut(op.Local, op.Sb); err != nil {
			return err
		}
	}
	if len(ops) > 1 {
		b.batch.Append(batchLocal, uint64(len(ops)), nil)
	}
	for _, op := range ops {
		b.batch.Append(op.Local, op.Sb.Epoch, op.Sb.Ct)
	}
	if err := b.batch.Add(len(ops)); err != nil {
		// Leave the mirror untouched: the engine above has not applied
		// these writes either, so live state stays consistent.
		return err
	}
	for _, op := range ops {
		b.blocks.Put(op.Local, op.Sb) // validated above
	}
	return nil
}

// Flush implements backend.Backend: settle the commit in flight, then
// write the open batch and fsync the log. On a closed or wedged backend
// it fails like Put does — returning nil would let a caller believe held
// records reached stable storage. Any write or fsync failure, the
// helper's included, wedges the backend: after a failed fsync
// the kernel may discard dirty pages, and records already handed to the
// page cache could otherwise become durable later even though their
// writes were reported failed — acknowledgments and disk state would
// diverge (the classic fsync-retry trap).
func (b *Backend) Flush() error {
	if b.closed {
		return format.ClosedErr(b.failErr)
	}
	return b.batch.Commit()
}

// Checkpoint implements backend.Backend: write a fresh snapshot of every
// stored block plus the sealed metadata blob, then reset the log
// (durable.Format.Checkpoint has the ordering and the wedge rule).
func (b *Backend) Checkpoint(meta []byte, metaEpoch uint64) error {
	if b.closed {
		return format.ClosedErr(b.failErr)
	}
	// Durably reserve the blob's sealing epoch in the *current* log before
	// any sealed snapshot byte reaches disk: if we crash mid-checkpoint,
	// recovery folds the reservation in and the restored sealer can never
	// re-issue this checkpoint's IV for different plaintext.
	b.batch.Append(backend.EpochReserveLocal, metaEpoch, nil)
	if err := b.Flush(); err != nil {
		return err
	}
	newSeq := b.seq + 1
	f, err := format.Checkpoint(b.dir, newSeq, meta, metaEpoch, b.writeBlocks, b.fail)
	if err != nil {
		return err
	}
	b.logF.Close()
	b.logF = f
	b.seq = newSeq
	b.meta, b.metaEpoch, b.tail = nil, metaEpoch, nil
	return nil
}

// Close implements backend.Backend: settle, commit, release the log and
// the directory lock. Idempotent; a backend that wedged mid-operation
// surfaces its wedging error here too.
func (b *Backend) Close() error {
	if b.closed {
		return b.failErr
	}
	err := b.Flush()
	if b.closed {
		// Flush wedged the backend and already released every resource.
		return b.failErr
	}
	b.closed = true
	b.batch.Stop()
	if cerr := b.logF.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	b.failErr = err // error-idempotent: a retried Close reports the same outcome
	b.unlock()
	return err
}

// writeBlocks is the snapshot's payload section: every stored block,
// straight from the mirror in ascending id order, so one stored set always
// writes the same bytes.
func (b *Backend) writeBlocks(w *bufio.Writer) {
	var u [16]byte
	binary.LittleEndian.PutUint64(u[:8], uint64(b.blocks.Len()))
	w.Write(u[:8])
	b.blocks.Range(func(local uint64, sb backend.Sealed) {
		binary.LittleEndian.PutUint64(u[0:8], local)
		binary.LittleEndian.PutUint64(u[8:16], sb.Epoch)
		w.Write(u[:])
		w.Write(sb.Ct)
	})
}

// fail wedges the backend after a non-recoverable mid-operation error:
// every later operation fails fast instead of acknowledging writes that
// can never durably land. Close re-surfaces the wedging error.
func (b *Backend) fail(err error) error {
	if !b.closed {
		b.closed = true
		b.failErr = err
	}
	b.batch.Stop()
	if b.logF != nil {
		b.logF.Close()
		b.logF = nil
	}
	b.unlock()
	return err
}

// load rebuilds the mirror from the snapshot and the log tail, and leaves
// the log open for appending.
func (b *Backend) load() error {
	snap, err := format.LoadSnapshot(b.dir)
	if err != nil {
		return err
	}
	if snap != nil {
		b.seq, b.meta, b.metaEpoch = snap.Seq, snap.Meta, snap.MetaEpoch
		if err := b.loadBlocks(snap.Payload); err != nil {
			return err
		}
	}
	var applyErr error
	b.logF, err = format.Recover(b.dir, b.seq, durable.Replay{
		// A batch header's next `epoch` records form one atomic batch (a
		// whole access's path write): recovery never persists half of one.
		Group: func(rec []byte) int {
			local, n := durable.Fields(rec)
			switch {
			case local != batchLocal:
				return 0
			case n == 0 || n > durable.MaxGroupCommit:
				return -1
			}
			return int(n)
		},
		Apply: func(recs []byte) {
			if local, _ := durable.Fields(recs); local == batchLocal {
				recs = recs[recordSize:]
			}
			for ; len(recs) > 0; recs = recs[recordSize:] {
				local, epoch := durable.Fields(recs)
				if local != backend.EpochReserveLocal {
					// Copied into the mirror; a record only this directory's
					// capacity rules out is reported once replay is over.
					err := b.blocks.Put(local, backend.Sealed{Ct: recs[16 : 16+crypt.BlockBytes], Epoch: epoch})
					if err != nil && applyErr == nil {
						applyErr = fmt.Errorf("wal: %s: %w", logName, err)
					}
				}
				b.tail = append(b.tail, backend.TailOp{Local: local, Epoch: epoch})
			}
		},
		// The bytes of a torn tail were nevertheless observed by the
		// (untrusted) disk, and every appended record consumes exactly one
		// sealing epoch, so the crashed process consumed at most one epoch
		// per discarded record past the last recovered one. Surface that
		// bound as a synthetic reservation, durable in the tail's place, so
		// the shard's sealer skips the observed-but-lost epochs instead of
		// re-issuing their IVs.
		Torn: func(records int) []byte {
			last := b.metaEpoch
			for _, op := range b.tail {
				last = max(last, op.Epoch)
			}
			reserve := backend.TailOp{Local: backend.EpochReserveLocal, Epoch: last + uint64(records)}
			b.tail = append(b.tail, reserve)
			rec := make([]byte, recordSize)
			durable.Frame(rec, reserve.Local, reserve.Epoch, nil)
			return rec
		},
	})
	if err == nil {
		err = applyErr // Open's fail closes the log
	}
	return err
}

// loadBlocks parses the snapshot's payload section.
func (b *Backend) loadBlocks(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("wal: snapshot block count overruns file")
	}
	n := binary.LittleEndian.Uint64(body)
	body = body[8:]
	const blockRec = 8 + 8 + crypt.BlockBytes
	// Divide instead of multiplying: an absurd n would overflow n*blockRec
	// and turn this validation into a slice-bounds panic below.
	if rest := uint64(len(body)); rest/blockRec != n || rest%blockRec != 0 {
		return fmt.Errorf("wal: snapshot holds %d bytes of blocks, expected %d records", len(body), n)
	}
	for ; len(body) > 0; body = body[blockRec:] {
		sb := backend.Sealed{Ct: body[16 : 16+crypt.BlockBytes], Epoch: binary.LittleEndian.Uint64(body[8:])}
		if err := b.blocks.Put(binary.LittleEndian.Uint64(body), sb); err != nil {
			return fmt.Errorf("wal: %s: %w", snapName, err)
		}
	}
	return nil
}
