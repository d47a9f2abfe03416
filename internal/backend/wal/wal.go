// Package wal is the durable block-state backend: a CRC-framed append-only
// log of sealed writes with group-committed fsync, compacted periodically
// into an atomically-replaced snapshot file, and replayed on open so a
// store survives restarts and crashes.
//
// The blocks are not held in memory. The stored set is the current
// snapshot's block section overlaid by the blocks written or replayed
// since it, and both are read where their records lie: the snapshot file
// and the log are each opened for reads in place (mapped read-only on
// Linux, one ReadAt per read elsewhere: package durable's Region). recent
// indexes the second set, each id's last record in the current log, which
// lies in the open group-commit batch, in the batch the helper is
// committing, or in the log file. A Get looks in recent first, then
// copies the block's record out of the snapshot file; the snapshot's
// records are ascending by id, so record i is block i when the stored ids
// are 0..n−1 (dense), and a binary search over the records' ids finds it
// otherwise. A checkpoint merges the two into the next snapshot in
// ascending id order, copying each run of snapshot records between two
// recent ids as it lies in the file and each recent block out of the log,
// then reads from the files it wrote and empties recent. The heap holds
// recent's 4 bytes per id written since the snapshot and the two batch
// buffers, whatever the spacing of checkpoints. A record that cannot be
// read — a file truncated under the mapping, an I/O error, a closed or
// wedged backend — reads as the unreadable epoch, which the shard's epoch
// check fails loudly.
//
// On-disk layout (one directory per shard; the lock, the log header, the
// record and snapshot framing and every recovery rule are the durable-log
// core's, package durable — this package adds what the payloads mean):
//
//	snapshot   core envelope, payload section = nBlocks |
//	           nBlocks × (local, epoch, ct[64]), ascending by local
//	           (any order loads, indexed in recent where it lies: older
//	           versions wrote map order, and the next checkpoint rewrites
//	           it ascending)
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
// Recovery on Open maps the snapshot (if any) and checks its CRC in place,
// then indexes the log's intact records in recent where they lie; when a
// torn group-commit tail is cut, a durable epoch reservation covering the
// discarded records is folded in over it. What a crash loses is therefore
// exactly the writes the group-commit policy had not yet fsynced, and
// nothing else.
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
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"palermo/internal/backend"
	"palermo/internal/backend/durable"
	"palermo/internal/crypt"
	"palermo/internal/paged"
)

const (
	headerSize = durable.HeaderSize
	recordSize = 8 + 8 + crypt.BlockBytes + 4 // local, epoch, ct, crc
	logName    = "wal.log"
	snapName   = "snapshot"

	// blockRec is one record of the snapshot's block section: local |
	// epoch | ct. Get copies out the 72 bytes after the local.
	blockRec  = 8 + 8 + crypt.BlockBytes
	sealedLen = blockRec - 8

	// unreadable is the epoch Get returns for a block it cannot read.
	// The sealer never assigns it, so the shard's epoch check fails the
	// read loudly instead of serving wrong bytes.
	unreadable = ^uint64(0)

	// loadChunk is how many snapshot records Open reads at a time.
	loadChunk = 512

	// batchLocal is the reserved Local value of a batch header record: the
	// record's epoch field carries the count of records that follow as one
	// atomic batch (a whole access's path write, appended by PutMany). Like
	// EpochReserveLocal, real block ids (capped at 2^40) can never collide
	// with it.
	batchLocal = ^uint64(0) - 1

	// snapRef marks a value of recent that names a record of the
	// snapshot's section instead of the log's: a section in no particular
	// order (older builds) is indexed in recent where it lies.
	snapRef = 1 << 31
)

// maxLogRecords is how many records one log may hold: recent stores 1 +
// a record's number, below snapRef. A put that would pass it is refused
// until a checkpoint starts a new log; a variable so a test can lower it.
var maxLogRecords uint64 = snapRef - 1

// minLogSpan is the least span the log's region covers. The span starts
// at twice the log's size or more, and a read past it reopens the region
// twice as large as the log; a variable so a test can make the log
// outgrow it.
var minLogSpan int64 = 64 << 20

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
	// Capacity is the shard's block capacity, which sizes the index of
	// the blocks written since the last snapshot (recent, a paged.Table:
	// 4 bytes per id written since, the blocks themselves stay in the
	// log); ids at or beyond it are refused. Zero means unknown: a direct
	// index, ids below paged.DirectKeys.
	Capacity uint64
}

// Backend is a durable block-state backend over one directory.
type Backend struct {
	dir string
	opt Options

	// The stored set: the snapshot's records, overlaid by recent, which
	// maps each id written or replayed since the snapshot to 1 + the
	// number of its last record in the log (or snapRef | 1 + a record of
	// an unordered snapshot section).
	recent    paged.Table[uint32]
	recentTop uint64 // 1 + the highest id in recent; 0 when empty
	snap      snapView
	extra     int    // ids in recent that the snapshot does not hold
	limit     uint64 // ids are below it: Capacity, or paged.DirectKeys

	logR    *durable.Region // the log, for reads in place; nil: closed
	logSpan int64           // bytes logR covers
	logRecs uint64          // records in the log past its header, held ones included

	getBuf  [sealedLen]byte // Get's copy of a record
	manyBuf []byte          // GetMany's copies, sealedLen bytes per position

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
	b := &Backend{dir: dir, opt: opt, lockF: lock, recent: paged.New[uint32](opt.Capacity), limit: opt.Capacity}
	if b.limit == 0 {
		b.limit = paged.DirectKeys
	}
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

// Get implements backend.Backend: the block is copied into the
// backend's buffer from where its last record lies, and is valid until
// the next call on the backend.
func (b *Backend) Get(local uint64) (backend.Sealed, bool) {
	return b.get(local, b.getBuf[:])
}

// GetMany implements backend.VectorBackend: every position is copied into
// a buffer of its own, so every result stays valid until the next call
// on the backend.
func (b *Backend) GetMany(locals []uint64, out []backend.Sealed, ok []bool) {
	if len(b.manyBuf) < len(locals)*sealedLen {
		b.manyBuf = make([]byte, len(locals)*sealedLen)
	}
	for i, local := range locals {
		out[i], ok[i] = b.get(local, b.manyBuf[i*sealedLen:(i+1)*sealedLen])
	}
}

// get returns local's block copied into buf (sealedLen bytes), or the
// unreadable epoch when its record cannot be read.
func (b *Backend) get(local uint64, buf []byte) (backend.Sealed, bool) {
	ref := b.recent.Get(local)
	if ref == 0 {
		return b.snap.get(local, buf)
	}
	sb := backend.Sealed{Ct: buf[8:], Epoch: unreadable}
	if b.read(ref, buf) {
		sb.Epoch = binary.LittleEndian.Uint64(buf)
	}
	return sb, true
}

// read copies the epoch | ct of recent's record ref into buf (sealedLen
// bytes) and reports whether it could: never on a closed or wedged
// backend. A log record lies in the open batch, in the commit in flight,
// which directly precedes it, or before both in the log file.
func (b *Backend) read(ref uint32, buf []byte) bool {
	switch {
	case b.closed:
		return false
	case ref&snapRef != 0:
		return b.snap.r.ReadAt(buf, b.snap.off+int64(ref&^snapRef-1)*blockRec+8)
	}
	k := uint64(ref - 1)
	open, flight := b.batch.Held()
	first := b.logRecs - uint64(len(open)/recordSize) // the open batch's first record
	if k >= first {
		copy(buf, open[(k-first)*recordSize+8:])
		return true
	}
	if first -= uint64(len(flight) / recordSize); k >= first {
		copy(buf, flight[(k-first)*recordSize+8:])
		return true
	}
	off := logOff(k) + 8
	if off+sealedLen > b.logSpan {
		if err := b.openLog(off + sealedLen); err != nil {
			b.fail(err)
			return false
		}
	}
	return b.logR.ReadAt(buf, off)
}

// Len implements backend.Backend: the snapshot's blocks and the ones
// written since that it does not hold.
func (b *Backend) Len() int { return int(b.snap.n) + b.extra }

// index points recent at ref, local's last record, counting an id the
// snapshot does not hold.
func (b *Backend) index(local uint64, ref uint32) {
	if b.recent.Swap(local, ref) == 0 {
		b.recentTop = max(b.recentTop, local+1)
		if _, held := b.snap.record(local); !held {
			b.extra++
		}
	}
}

// logOff is the file offset of the log's record k.
func logOff(k uint64) int64 { return headerSize + int64(k)*recordSize }

// openLog opens the log for reads in place over a span of at least
// minLogSpan and at least twice need bytes, replacing the region it had.
func (b *Backend) openLog(need int64) error {
	b.closeLog()
	span := minLogSpan
	for span < 2*need {
		span *= 2
	}
	r, err := durable.OpenRegion(filepath.Join(b.dir, logName), span, false)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	b.logR, b.logSpan = r, span
	return nil
}

// closeLog lets the log's region go.
func (b *Backend) closeLog() {
	b.logR.Close()
	b.logR, b.logSpan = nil, 0
}

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
	switch {
	case local == backend.EpochReserveLocal || local == batchLocal:
		return fmt.Errorf("wal: block id %d is reserved", local)
	case len(sb.Ct) != crypt.BlockBytes:
		return fmt.Errorf("wal: ciphertext must be %d bytes, got %d", crypt.BlockBytes, len(sb.Ct))
	}
	return b.checkID(local)
}

// checkID refuses an id outside the capacity.
func (b *Backend) checkID(local uint64) error {
	if local >= b.limit {
		return fmt.Errorf("wal: block id %d outside capacity %d", local, b.limit)
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
	recs := uint64(len(ops))
	if len(ops) > 1 {
		recs++ // the batch header
	}
	if b.logRecs+recs > maxLogRecords {
		return fmt.Errorf("wal: the log holds %d records and can index at most %d: checkpoint to start a new one", b.logRecs, maxLogRecords)
	}
	if len(ops) > 1 {
		b.batch.Append(batchLocal, uint64(len(ops)), nil)
	}
	for _, op := range ops {
		b.batch.Append(op.Local, op.Sb.Epoch, op.Sb.Ct)
	}
	b.logRecs += recs
	if err := b.batch.Add(len(ops)); err != nil {
		// Leave the stored set untouched: the engine above has not
		// applied these writes either, so live state stays consistent.
		return err
	}
	first := b.logRecs - uint64(len(ops)) // the first op's record
	for i, op := range ops {
		b.index(op.Local, uint32(first+uint64(i))+1)
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
// (durable.Format.Checkpoint has the ordering and the wedge rule). Reads
// then come from the new snapshot, and recent is emptied.
func (b *Backend) Checkpoint(meta []byte, metaEpoch uint64) error {
	if b.closed {
		return format.ClosedErr(b.failErr)
	}
	// Durably reserve the blob's sealing epoch in the *current* log before
	// any sealed snapshot byte reaches disk: if we crash mid-checkpoint,
	// recovery folds the reservation in and the restored sealer can never
	// re-issue this checkpoint's IV for different plaintext.
	b.batch.Append(backend.EpochReserveLocal, metaEpoch, nil)
	b.logRecs++
	if err := b.Flush(); err != nil {
		return err
	}
	newSeq := b.seq + 1
	path := filepath.Join(b.dir, snapName)
	had := b.snap.r != nil
	var next snapView
	f, err := format.Checkpoint(b.dir, newSeq, meta, metaEpoch, func(w *bufio.Writer) error {
		var err error
		next, err = b.writeBlocks(w)
		// Let the old files go before the renames replace them: a
		// platform without the mapping holds them open, and Windows
		// renames over no open file.
		b.snap.close()
		b.closeLog()
		return err
	}, b.fail)
	if err != nil {
		if !b.closed { // failed before the rename: the old files are still in place
			var rerr error
			if had && b.snap.r == nil {
				if b.snap.r, rerr = durable.OpenRegion(path, 0, false); rerr != nil {
					rerr = fmt.Errorf("wal: %w", rerr)
				}
			}
			if rerr == nil && b.logR == nil {
				rerr = b.openLog(logOff(b.logRecs))
			}
			if rerr != nil {
				return b.fail(rerr)
			}
		}
		return err
	}
	b.logF.Close()
	b.logF = f
	b.seq = newSeq
	b.meta, b.metaEpoch, b.tail = nil, metaEpoch, nil
	// The file was just written and synced: map it without reading it back.
	if next.r, err = durable.OpenRegion(path, 0, false); err != nil {
		return b.fail(fmt.Errorf("wal: %w", err))
	}
	next.off = durable.PayloadOffset(len(meta)) + 8 // past the block count
	b.snap = next
	b.recent.Reset()
	b.recentTop, b.extra, b.logRecs = 0, 0, 0
	if err := b.openLog(headerSize); err != nil {
		return b.fail(err)
	}
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
	b.snap.close()
	b.closeLog()
	b.unlock()
	return err
}

// writeBlocks is the snapshot's payload section: every stored block in
// ascending id order, so one stored set always writes the same bytes. It
// merges the snapshot's records with recent's blocks, which replace the
// records of their ids; each run of records between two recent ids is
// copied as it lies in the file, and each recent block is copied out of
// the log, which holds every one of them (Checkpoint flushed first).
// One fault guard covers the whole merge, and a fault fails the
// checkpoint. It returns the new section's view but for its file
// (Checkpoint opens it once it is in place).
func (b *Backend) writeBlocks(w *bufio.Writer) (snapView, error) {
	old := &b.snap
	n := uint64(b.Len())
	next := snapView{n: n, top: max(old.top, b.recentTop)}
	var u [sealedLen]byte
	binary.LittleEndian.PutUint64(u[:8], n)
	w.Write(u[:8])
	err := durable.Guarded(func() error {
		from := uint64(0) // the first snapshot record not merged yet
		// run copies the snapshot's records [from, to).
		run := func(to uint64) error {
			if to <= from {
				return nil
			}
			err := old.r.WriteTo(w, old.off+int64(from)*blockRec, int64(to-from)*blockRec)
			from = to
			return err
		}
		var err error
		b.recent.Ascending(func(local uint64, ref uint32) {
			var to uint64
			var replaced bool
			if err == nil {
				if to, replaced, err = old.lowerBound(local, from); err == nil {
					err = run(to)
				}
			}
			if err != nil {
				return
			}
			if replaced {
				from++
			}
			binary.LittleEndian.PutUint64(u[:8], local)
			w.Write(u[:8])
			if !b.read(ref, u[:]) {
				err = errUnreadable
				return
			}
			w.Write(u[:])
		})
		if err == nil {
			err = run(old.n)
		}
		return err
	})
	if err != nil {
		return next, fmt.Errorf("wal: %s: %w", snapName, err)
	}
	return next, nil
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
	b.snap.close()
	b.closeLog()
	b.unlock()
	return err
}

// load opens the snapshot in place, indexes the log's records in recent
// where they lie, and leaves the log open for appending and for reads in
// place.
func (b *Backend) load() error {
	snap, r, err := format.MapSnapshot(b.dir)
	if err != nil {
		return err
	}
	if snap != nil {
		b.seq, b.meta, b.metaEpoch = snap.Seq, snap.Meta, snap.MetaEpoch
		b.snap.r = r // closed by Open's fail if what follows refuses it
		if err := b.loadBlocks(snap.PayloadOff, snap.PayloadLen); err != nil {
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
		// Each record is counted, so the next one's number is its place
		// in the file.
		Apply: func(recs []byte) {
			if local, _ := durable.Fields(recs); local == batchLocal {
				recs = recs[recordSize:]
				b.logRecs++
			}
			for ; len(recs) > 0; recs = recs[recordSize:] {
				local, epoch := durable.Fields(recs)
				if local != backend.EpochReserveLocal {
					// Indexed where it lies; a record only this directory's
					// capacity rules out is reported once replay is over.
					err := b.checkID(local)
					if err == nil && b.logRecs >= maxLogRecords {
						err = fmt.Errorf("wal: more than the %d records recent can index", maxLogRecords)
					}
					if err == nil {
						b.index(local, uint32(b.logRecs)+1)
					} else if applyErr == nil {
						applyErr = fmt.Errorf("%w in %s", err, logName)
					}
				}
				b.logRecs++
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
			b.logRecs++ // persisted in the tail's place
			rec := make([]byte, recordSize)
			durable.Frame(rec, reserve.Local, reserve.Epoch, nil)
			return rec
		},
	})
	if err == nil {
		err = applyErr // Open's fail closes the log
	}
	if err == nil {
		err = b.openLog(logOff(b.logRecs))
	}
	return err
}

// loadBlocks checks the snapshot's block section, which lies size bytes
// long at off in the file. Ids in ascending order, as every build since
// the slab writes them, are found by the section's own order; any other
// order (older builds wrote map order) is indexed in recent, and the
// next checkpoint rewrites the section ascending.
func (b *Backend) loadBlocks(off, size int64) error {
	v := &b.snap
	var u [8]byte
	if size < 8 || !v.r.ReadAt(u[:], off) {
		return fmt.Errorf("wal: snapshot block count overruns file")
	}
	n := binary.LittleEndian.Uint64(u[:])
	v.off, size = off+8, size-8
	// Divide instead of multiplying: an absurd n would overflow n*blockRec.
	if rest := uint64(size); rest/blockRec != n || rest%blockRec != 0 {
		return fmt.Errorf("wal: snapshot holds %d bytes of blocks, expected %d records", size, n)
	}
	var top uint64 // 1 + the last id scanned
	ascending, inside := true, true
	err := v.each(n, func(_ uint64, rec []byte) bool {
		local := binary.LittleEndian.Uint64(rec)
		ascending, inside = local >= top, local < b.limit
		top = local + 1
		return ascending && inside
	})
	switch {
	case err != nil:
		return err
	case !inside:
		return fmt.Errorf("wal: %s: block id %d outside capacity %d", snapName, top-1, b.limit)
	case !ascending:
		return b.loadUnordered(n)
	}
	v.n, v.top = n, top
	return nil
}

// loadUnordered indexes a snapshot section of n records in no particular
// order in recent, each where it lies. The section's view stays empty, so
// no lookup searches it.
func (b *Backend) loadUnordered(n uint64) error {
	if n >= snapRef {
		return fmt.Errorf("wal: %s: %d records in no order, more than recent can index", snapName, n)
	}
	var perr error
	err := b.snap.each(n, func(i uint64, rec []byte) bool {
		local := binary.LittleEndian.Uint64(rec)
		if perr = b.checkID(local); perr != nil {
			perr = fmt.Errorf("%w in %s", perr, snapName)
			return false
		}
		b.index(local, snapRef|uint32(i+1))
		return true
	})
	return errors.Join(err, perr)
}

// snapView is the current snapshot's block section as reads find it.
type snapView struct {
	r   *durable.Region // the snapshot file; nil: none, or closed
	off int64           // file offset of record 0
	n   uint64          // records
	top uint64          // 1 + the last record's id; 0 when empty
}

// record returns the index of local's record and whether the section
// holds one. A record it cannot read while searching counts as local's,
// so that a read of it fails loudly and the count of ids stays whole.
func (v *snapView) record(local uint64) (uint64, bool) {
	i, held, err := v.lowerBound(local, 0)
	return i, held || err != nil
}

// get returns local's block, copied into buf (sealedLen bytes), or the
// unreadable epoch when the record cannot be read.
func (v *snapView) get(local uint64, buf []byte) (backend.Sealed, bool) {
	i, ok := v.record(local)
	if !ok {
		return backend.Sealed{}, false
	}
	sb := backend.Sealed{Ct: buf[8:], Epoch: unreadable}
	if v.r.ReadAt(buf, v.off+int64(i)*blockRec+8) {
		sb.Epoch = binary.LittleEndian.Uint64(buf)
	}
	return sb, true
}

var errUnreadable = errors.New("record cannot be read")

// lowerBound returns the first record at or after from whose id is at
// least local, and whether its id is local. Record i is block i when the
// section is dense; otherwise it binary-searches the records' ids where
// they lie.
func (v *snapView) lowerBound(local, from uint64) (uint64, bool, error) {
	switch {
	case local >= v.top:
		return v.n, false, nil // every id past the last
	case v.top == v.n:
		return local, true, nil // dense: record i is block i
	}
	lo, hi := from, v.n
	for lo < hi {
		mid := lo + (hi-lo)/2
		var u [8]byte
		if !v.r.ReadAt(u[:], v.off+int64(mid)*blockRec) {
			return 0, false, errUnreadable
		}
		switch id := binary.LittleEndian.Uint64(u[:]); {
		case id < local:
			lo = mid + 1
		case id > local:
			hi = mid
		default:
			return mid, true, nil
		}
	}
	return lo, false, nil
}

// each calls fn with every record of an n-record section in file order,
// read loadChunk records at a time, until fn returns false.
func (v *snapView) each(n uint64, fn func(i uint64, rec []byte) bool) error {
	buf := make([]byte, min(n, loadChunk)*blockRec)
	for i := uint64(0); i < n; {
		k := min(n-i, loadChunk)
		chunk := buf[:k*blockRec]
		if !v.r.ReadAt(chunk, v.off+int64(i)*blockRec) {
			return fmt.Errorf("wal: %w", errUnreadable)
		}
		for j := uint64(0); j < k; j++ {
			if !fn(i+j, chunk[j*blockRec:(j+1)*blockRec]) {
				return nil
			}
		}
		i += k
	}
	return nil
}

// close lets the snapshot file go. Its records stay counted: a closed or
// wedged backend reads them as unreadable.
func (v *snapView) close() {
	v.r.Close()
	v.r = nil
}
