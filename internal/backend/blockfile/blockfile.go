// Package blockfile is the paged block-state backend: sealed blocks
// live in a fixed-slot file addressed by shard-local id (slot
// offset = id × SlotBytes), and the append-only log holds only tiny
// metadata records — so checkpoint compaction rewrites the metadata
// snapshot alone, never the payloads, where the WAL rewrites every stored
// block per snapshot.
//
// On-disk layout (one directory per shard; the lock, the log and snapshot
// framing and every recovery rule of the two metadata files are the
// durable-log core's, package durable):
//
//	blocks.dat  fixed SlotBytes slots; slot i at offset i*SlotBytes:
//	            magic | reserved | local(8) | epoch(8) | ct[64] |
//	            crc32(header+payload) | zero padding to the sector
//	meta.log    core log of 20-byte records: local | epoch | crc32
//	meta.snap   core envelope with no payload section
//
// blocks.dat is opened buffered, and a slot write is a copy into the
// kernel's page cache; runs of consecutive locals coalesce into single
// WriteAt calls. Get reads the slot in place through package durable's
// Region over the shard's capacity (Options.Capacity): on Linux a copy of
// a resident slot out of a read-only mapping, without a syscall; on other
// platforms, and where the mapping cannot be made, one pread. A slot that
// cannot be read (the file truncated under the mapping) reads as an
// unreadable slot, never a crash.
//
// Records are held in the durable core's group-commit batch
// (durable.Batch). Above GroupCommit 1 a PutMany that closes a batch
// hands the batch's commit to the core's helper goroutine and returns;
// the helper runs the commits in order, at most one at a time, and the
// backend reports each through backend.Committer, so the owner can hold
// the acknowledgments of the writes that ran meanwhile until it settles
// (package serve does; DESIGN.md §9). On Linux the helper also starts the
// slot file's writeback each time the open batch's held records cross a
// quarter of GroupCommit (sync_file_range, SYNC_FILE_RANGE_WRITE only),
// so the commit's data sync finds most of the group's pages already
// written (DESIGN.md §12). Flush, Checkpoint, Close, an epoch reservation
// and a wedge wait for the commit in flight first, and the helper is
// stopped before the slot file closes. At GroupCommit 1 every commit runs
// inside its Put and no helper starts.
//
// Write protocol: each Put pwrites the slot and holds a metadata record
// naming (local, epoch) in memory. A group commit syncs blocks.dat, then
// writes the held records to meta.log in one write, then syncs meta.log.
// No record reaches the log file before its slot is synced, so a durable
// log record always implies a durable slot. A record with
// local == backend.EpochReserveLocal is an epoch reservation: before any
// slot carrying epoch e > reserved is pwritten, a reservation for
// e + reserveChunk is committed to the log. Every epoch the disk could
// ever have observed — including in a slot a power loss tore mid-sector
// — is therefore bounded by a durable reservation, and recovery can
// discard torn slots whole without trusting their epoch fields, while
// the restored sealer skips past the reservation so no observed IV is
// ever reused.
//
// Recovery on Open replays the metadata log, then scans every slot header
// against it. A valid slot whose epoch exceeds both the checkpoint and
// its last logged record is an orphan: its pwrite completed but the
// crash took the record held for the commit — the slot itself is the
// durable evidence, so recovery synthesizes its tail op, ordered by
// epoch (the per-shard sealing counter is a monotone LSN: epoch order is
// submission order). Torn or stale slots are zeroed — discarded whole,
// never served half-written — under the covering reservation. Wrong-key
// reopens are rejected above this layer by the shard's checkpoint
// decode, as with the WAL.
//
// The slot file stores (local id, ciphertext, epoch) in the block's own
// slot, so its access pattern is the logical one: the slot of the id a Get
// or Put names, not the engine's uniform tree paths (package backend;
// DESIGN.md §12; ROADMAP item 2).
package blockfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"palermo/internal/backend"
	"palermo/internal/backend/durable"
	"palermo/internal/crypt"
	"palermo/internal/paged"
)

const (
	headerSize = durable.HeaderSize
	recSize    = 8 + 8 + 4 // local, epoch, crc

	dataName = "blocks.dat"
	logName  = "meta.log"
	snapName = "meta.snap"

	// reserveChunk is how far ahead of the highest assigned epoch each
	// reservation record reaches: one reservation fsync covers the next
	// reserveChunk slot writes, so the IV-safety cost is amortized to
	// ~1/4096 of an fsync per write.
	reserveChunk = 4096

	// maxRunSlots caps one coalesced write run (and the scratch buffer it
	// is staged in) at 64 KiB.
	maxRunSlots = 128

	// maxSlots bounds Options.Capacity: matches the store's 2^40-block
	// capacity cap and keeps slot offsets far from int64 overflow.
	maxSlots = 1 << 40

	// unreadable is the epoch Get returns for a present slot it cannot
	// read. The sealer never assigns it, so the shard's epoch check fails
	// the read loudly instead of serving wrong bytes.
	unreadable = ^uint64(0)
)

var format = durable.Format{
	Engine:  "blockfile",
	LogName: logName, LogMagic: "PBFLOG01",
	SnapName: snapName, SnapMagic: "PBFSNP01",
	RecordSize: recSize,
}

// Options tunes a blockfile backend.
type Options struct {
	// GroupCommit is the number of put records per data+log sync pair
	// (default durable.DefaultGroupCommit, the WAL's cadence; 1 =
	// synchronous durability for every write).
	GroupCommit int
	// Capacity is the shard's block capacity: ids at or beyond it are
	// refused, by Put and at Open, and it sizes the read mapping (Capacity
	// × SlotBytes of address space, none of it memory until read). Zero
	// means unknown: ids below paged.DirectKeys, as for the WAL.
	Capacity uint64
}

// Backend is a durable paged block-state backend over one directory.
type Backend struct {
	dir string
	opt Options

	dataF *os.File // blocks.dat
	logF  *os.File
	lockF *os.File
	batch durable.Batch // records held for the commit, and its helper

	present []uint64 // bitmap of stored slots (the only per-block RAM)
	count   int

	scratch []byte          // slot write buffer, maxRunSlots slots
	slots   *durable.Region // blocks.dat read in place, for Get

	reserved uint64 // highest durably reserved sealing epoch

	meta      []byte // what load found, until Recovered hands it over
	metaEpoch uint64
	tail      []backend.TailOp // likewise
	seq       uint64

	closed  bool
	failErr error

	durable.Fsync // commit-path (data+log) fsync telemetry; FsyncStats
}

// Open creates or recovers the backend rooted at dir. The directory is
// exclusively locked for the backend's lifetime.
func Open(dir string, opt Options) (*Backend, error) {
	opt.GroupCommit = durable.GroupCommit(opt.GroupCommit)
	if opt.Capacity == 0 {
		opt.Capacity = paged.DirectKeys
	}
	if opt.Capacity > maxSlots {
		return nil, fmt.Errorf("blockfile: capacity %d exceeds the %d-slot limit", opt.Capacity, uint64(maxSlots))
	}
	lock, err := format.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	b := &Backend{dir: dir, opt: opt, lockF: lock}
	if err := b.load(); err != nil {
		return nil, b.fail(err) // closes what was opened, releases the lock
	}
	b.scratch = make([]byte, maxRunSlots*SlotBytes)
	if b.slots, err = durable.OpenRegion(b.path(dataName), int64(b.opt.Capacity*SlotBytes), true); err != nil {
		return nil, b.fail(fmt.Errorf("blockfile: %w", err))
	}
	var hint func()
	if hintWriteback {
		f := b.dataF
		hint = func() { writeback(f) }
	}
	b.batch.Start(b.opt.GroupCommit, recSize, b.syncBatch, b.fail, hint)
	return b, nil
}

// load recovers the metadata files, reconciles every slot with them, and
// leaves the log and the slot file open.
func (b *Backend) load() error {
	snap, err := format.LoadSnapshot(b.dir)
	if err != nil {
		return err
	}
	if snap != nil {
		if len(snap.Payload) != 0 {
			return fmt.Errorf("blockfile: %s holds %d bytes past its metadata", b.path(snapName), len(snap.Payload))
		}
		b.seq, b.meta, b.metaEpoch = snap.Seq, snap.Meta, snap.MetaEpoch
	}
	// Replay the metadata log: write records in order, plus the highest
	// reservation bound. A torn tail is simply cut (no synthetic
	// reservation is needed, unlike the WAL: a reservation record is only
	// acknowledged after its own sync completes, so a torn one never had
	// dependent slot writes, and torn write records' epochs are covered by
	// their slots — valid slots replay as orphans, torn slots fall under
	// the standing reservation).
	var recs []backend.TailOp
	var maxReserve uint64
	b.logF, err = format.Recover(b.dir, b.seq, durable.Replay{Apply: func(rec []byte) {
		if local, epoch := durable.Fields(rec); local == backend.EpochReserveLocal {
			maxReserve = max(maxReserve, epoch)
		} else {
			recs = append(recs, backend.TailOp{Local: local, Epoch: epoch})
		}
	}})
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Local >= b.opt.Capacity {
			return fmt.Errorf("blockfile: %s: block id %d outside capacity %d", logName, r.Local, b.opt.Capacity)
		}
	}
	orphans, err := b.scanSlots(recs)
	if err != nil {
		return err
	}
	b.tail = mergeByEpoch(recs, orphans)
	if maxReserve > 0 {
		// Surface the durable reservation bound so the restored sealer
		// skips every epoch the disk could have observed, including any
		// a torn slot carried before recovery zeroed it.
		b.tail = append(b.tail, backend.TailOp{Local: backend.EpochReserveLocal, Epoch: maxReserve})
	}
	b.reserved = max(maxReserve, b.metaEpoch)
	b.dataF, err = os.OpenFile(b.path(dataName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("blockfile: %w", err)
	}
	return nil
}

// Direct reports false: the slot file is always opened buffered.
//
// Deprecated: kept only for callers that still report the I/O mode
// (benchmark/layers); delete with ROADMAP item 5(a).
func (b *Backend) Direct() bool { return false }

func (b *Backend) path(name string) string { return filepath.Join(b.dir, name) }

func (b *Backend) unlock() {
	if b.lockF != nil {
		b.lockF.Close()
		b.lockF = nil
	}
}

// --- presence bitmap ---------------------------------------------------

func (b *Backend) isPresent(local uint64) bool {
	w := local >> 6
	return w < uint64(len(b.present)) && b.present[w]>>(local&63)&1 == 1
}

func (b *Backend) markPresent(local uint64) {
	w := local >> 6
	for uint64(len(b.present)) <= w {
		b.present = append(b.present, 0)
	}
	if b.present[w]>>(local&63)&1 == 0 {
		b.present[w] |= 1 << (local & 63)
		b.count++
	}
}

// --- Backend interface -------------------------------------------------

// Len implements backend.Backend.
func (b *Backend) Len() int { return b.count }

// Durable implements backend.Backend.
func (b *Backend) Durable() bool { return true }

// Recovered implements backend.Backend, and hands the blob and the tail
// over: nothing here reads them again.
func (b *Backend) Recovered() ([]byte, uint64, []backend.TailOp) {
	meta, tail := b.meta, b.tail
	b.meta, b.tail = nil, nil
	return meta, b.metaEpoch, tail
}

// InFlight implements backend.Committer.
func (b *Backend) InFlight() *backend.Commit { return b.batch.InFlight() }

func (b *Backend) validatePut(local uint64, sb backend.Sealed) error {
	if len(sb.Ct) != crypt.BlockBytes {
		return fmt.Errorf("blockfile: ciphertext must be %d bytes, got %d", crypt.BlockBytes, len(sb.Ct))
	}
	if local >= b.opt.Capacity {
		return fmt.Errorf("blockfile: block id %d outside capacity %d", local, b.opt.Capacity)
	}
	return nil
}

// Get implements backend.Backend: it copies the slot's epoch and
// ciphertext out of the slot file read in place. Runtime reads parse the
// header without re-verifying the CRC — torn detection is the recovery
// scan's job, and integrity of a served payload is enforced above this
// layer by the protocol's epoch-consistency check (a mismatched epoch
// fails the read loudly). A present slot that cannot be read — an I/O error, a fault in the
// mapping, a closed or wedged backend — surfaces the same way, as the
// unreadable epoch.
func (b *Backend) Get(local uint64) (backend.Sealed, bool) {
	if !b.isPresent(local) {
		return backend.Sealed{}, false
	}
	sb := backend.Sealed{Ct: make([]byte, crypt.BlockBytes), Epoch: unreadable}
	// epoch(8) | ct sits at byte 16 of the slot.
	var rec [8 + crypt.BlockBytes]byte
	if b.slots.ReadAt(rec[:], int64(local)*SlotBytes+16) {
		copy(sb.Ct, rec[8:])
		sb.Epoch = binary.LittleEndian.Uint64(rec[:8])
	}
	return sb, true
}

// GetMany implements backend.VectorBackend as one Get per id, so
// duplicate ids each get an independent copy.
func (b *Backend) GetMany(locals []uint64, out []backend.Sealed, ok []bool) {
	for i, l := range locals {
		out[i], ok[i] = b.Get(l)
	}
}

// Put implements backend.Backend: a vector of one — reserve the epoch if
// needed, pwrite the slot, hold the metadata record, and commit per the
// group-commit policy.
func (b *Backend) Put(local uint64, sb backend.Sealed) error {
	one := [1]backend.PutOp{{Local: local, Sb: sb}}
	return b.PutMany(one[:])
}

// PutMany implements backend.VectorBackend: slots are written as
// vectored pwrites (runs of consecutive locals in one WriteAt), then the
// metadata records are held in op order until the commit. Duplicates
// within the vector land last-writer-wins because runs are issued in
// scan order.
// The vector counts len(ops) records toward the group-commit policy,
// exactly like the WAL. Above GroupCommit 1 a vector that closes its
// batch returns once the helper has the batch's commit (InFlight).
func (b *Backend) PutMany(ops []backend.PutOp) error {
	if b.closed {
		return format.ClosedErr(b.failErr)
	}
	if len(ops) == 0 {
		return nil
	}
	if err := b.batch.Reap(); err != nil {
		return err
	}
	maxE := uint64(0)
	for _, op := range ops {
		if err := b.validatePut(op.Local, op.Sb); err != nil {
			return err
		}
		if op.Sb.Epoch > maxE {
			maxE = op.Sb.Epoch
		}
	}
	if err := b.ensureReserved(maxE); err != nil {
		return err
	}
	for start := 0; start < len(ops); {
		end := start + 1
		for end < len(ops) && end-start < maxRunSlots && ops[end].Local == ops[end-1].Local+1 {
			end++
		}
		if err := b.writeRun(ops[start:end]); err != nil {
			return err
		}
		start = end
	}
	for _, op := range ops {
		b.batch.Append(op.Local, op.Sb.Epoch, nil)
	}
	if err := b.batch.Add(len(ops)); err != nil {
		return err
	}
	for _, op := range ops {
		b.markPresent(op.Local)
	}
	return nil
}

// writeRun pwrites one consecutive-locals run as a single WriteAt. A
// failed slot write is non-recoverable (the file may hold a partial
// run), so it wedges the backend.
func (b *Backend) writeRun(ops []backend.PutOp) error {
	buf := b.scratch[:len(ops)*SlotBytes]
	for i, op := range ops {
		encodeSlot(buf[i*SlotBytes:(i+1)*SlotBytes], op.Local, op.Sb)
	}
	if _, err := b.dataF.WriteAt(buf, int64(ops[0].Local)*SlotBytes); err != nil {
		return b.fail(fmt.Errorf("blockfile: slot write: %w", err))
	}
	return nil
}

// ensureReserved makes sure a durable reservation record covers epoch
// before any slot carrying it is pwritten: if a power loss tears the
// slot mid-sector, recovery discards it whole and the reservation still
// bounds every epoch the disk observed, so no IV is ever reused. The
// reservation reaches reserveChunk ahead, amortizing its sync pair.
func (b *Backend) ensureReserved(epoch uint64) error {
	if epoch <= b.reserved {
		return nil
	}
	r := epoch + reserveChunk
	b.batch.Append(backend.EpochReserveLocal, r, nil)
	// The full commit: records held ahead of the reservation reach the
	// log with it, after their slots are synced.
	if err := b.batch.Commit(); err != nil {
		return err
	}
	b.reserved = r
	return nil
}

// syncFile is the commit's fsync; a variable so a test can observe it.
var syncFile = durable.TimedSync

// syncBatch is one group commit: sync the slot file, write the batch's
// held records to the log in one write, then sync the log. No record
// reaches the log file before its slot is synced, so the kernel can never
// write a record back ahead of the slot it names. It runs on the helper,
// or on the owner at GroupCommit 1 and in a barrier.
func (b *Backend) syncBatch(recs []byte) error {
	if err := syncFile(&b.Fsync, b.dataF); err != nil {
		return fmt.Errorf("blockfile: %w", err)
	}
	if len(recs) > 0 {
		if _, err := b.logF.Write(recs); err != nil {
			return fmt.Errorf("blockfile: %w", err)
		}
	}
	if err := syncFile(&b.Fsync, b.logF); err != nil {
		return fmt.Errorf("blockfile: %w", err)
	}
	return nil
}

// Flush implements backend.Backend. Failure semantics follow the WAL:
// any flush or sync failure wedges the backend (the fsync-retry trap).
func (b *Backend) Flush() error {
	if b.closed {
		return format.ClosedErr(b.failErr)
	}
	return b.batch.Commit()
}

// Checkpoint implements backend.Backend: O(metadata) — the snapshot
// holds only the sealed metadata blob, never payload bytes (those are
// already in their slots), so compaction cost is independent of how
// many blocks the store holds.
func (b *Backend) Checkpoint(meta []byte, metaEpoch uint64) error {
	if b.closed {
		return format.ClosedErr(b.failErr)
	}
	// Durably reserve the blob's sealing epoch in the *current* log
	// before any sealed snapshot byte reaches disk: a crash
	// mid-checkpoint recovers the old snapshot plus this reservation,
	// so the restored sealer can never re-issue the blob's IV.
	if err := b.ensureReserved(metaEpoch); err != nil {
		return err
	}
	if err := b.batch.Commit(); err != nil {
		return err
	}
	newSeq := b.seq + 1
	f, err := format.Checkpoint(b.dir, newSeq, meta, metaEpoch, nil, b.fail)
	if err != nil {
		return err
	}
	b.logF.Close()
	b.logF = f
	b.seq = newSeq
	b.meta, b.metaEpoch, b.tail = nil, metaEpoch, nil
	// The reset dropped the old log's reservation records. metaEpoch
	// exceeds every epoch assigned so far, so it is the new floor; the
	// next put re-reserves into the fresh log.
	b.reserved = metaEpoch
	return nil
}

// Close implements backend.Backend: flush, sync, release files and the
// directory lock. Idempotent; a wedged backend re-surfaces its error.
func (b *Backend) Close() error {
	if b.closed {
		return b.failErr
	}
	err := b.Flush()
	if b.closed {
		// Flush wedged the backend and already released everything.
		return b.failErr
	}
	b.closed = true
	b.batch.Stop()
	b.slots.Close()
	b.slots = nil
	if cerr := b.logF.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("blockfile: %w", cerr)
	}
	if cerr := b.dataF.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("blockfile: %w", cerr)
	}
	b.failErr = err
	b.unlock()
	return err
}

// fail wedges the backend after a non-recoverable mid-operation error.
// Stopping the helper first lets the commit in flight settle.
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
	b.slots.Close()
	b.slots = nil
	if b.dataF != nil {
		b.dataF.Close()
		b.dataF = nil
	}
	b.unlock()
	return err
}

// --- slot scan ---------------------------------------------------------

// scanSlots walks every slot header against the recovered log, building
// the presence bitmap and collecting orphans — valid slots whose epoch
// exceeds both the checkpoint and their last logged record (the pwrite
// landed; the crash took the held record). Torn slots, and slots
// stale relative to an acknowledged logged write, are zeroed: discarded
// whole under the covering reservation.
func (b *Backend) scanSlots(recs []backend.TailOp) ([]backend.TailOp, error) {
	lastLogged := make(map[uint64]uint64, len(recs))
	for _, r := range recs {
		if r.Epoch > lastLogged[r.Local] {
			lastLogged[r.Local] = r.Epoch
		}
	}
	f, err := os.OpenFile(b.path(dataName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockfile: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("blockfile: %w", err)
	}
	size := fi.Size()
	var orphans []backend.TailOp
	var discard []uint64
	buf := make([]byte, 512*SlotBytes)
	for base := int64(0); base < size; base += int64(len(buf)) {
		n, err := f.ReadAt(buf, base)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("blockfile: slot scan: %w", err)
		}
		for off := 0; off < n; off += SlotBytes {
			local := uint64(base/SlotBytes) + uint64(off/SlotBytes)
			end := off + SlotBytes
			if end > n {
				end = n
			}
			sb, st := decodeSlot(buf[off:end], local)
			if st == slotEmpty {
				continue
			}
			if local >= b.opt.Capacity {
				return nil, fmt.Errorf("blockfile: %s holds block id %d outside capacity %d", dataName, local, b.opt.Capacity)
			}
			if st == slotTorn {
				discard = append(discard, local)
				continue
			}
			last, logged := lastLogged[local]
			switch {
			case logged && sb.Epoch == last,
				!logged && sb.Epoch <= b.metaEpoch:
				// Consistent with the log (or pre-checkpoint).
				b.markPresent(local)
			case sb.Epoch > b.metaEpoch && (!logged || sb.Epoch > last):
				// Orphan: durable slot, lost record. The slot is the
				// evidence; synthesize its tail op.
				b.markPresent(local)
				orphans = append(orphans, backend.TailOp{Local: local, Epoch: sb.Epoch})
			default:
				// Stale: an acknowledged logged write's newer payload is
				// gone (possible only under external corruption — commit
				// order makes durable records imply durable slots).
				// Discard whole rather than serve the superseded bytes.
				discard = append(discard, local)
			}
		}
	}
	if len(discard) > 0 {
		zero := make([]byte, SlotBytes)
		for _, l := range discard {
			if _, err := f.WriteAt(zero, int64(l)*SlotBytes); err != nil {
				return nil, fmt.Errorf("blockfile: discarding slot %d: %w", l, err)
			}
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("blockfile: %w", err)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].Epoch < orphans[j].Epoch })
	return orphans, nil
}

// mergeByEpoch interleaves logged records and orphans into one
// epoch-ordered tail. Epochs are the shard's sealing counter — a
// monotone LSN assigned in submission order — so epoch order IS
// submission order; both inputs arrive epoch-sorted.
func mergeByEpoch(recs, orphans []backend.TailOp) []backend.TailOp {
	if len(orphans) == 0 {
		return recs
	}
	out := make([]backend.TailOp, 0, len(recs)+len(orphans))
	i, j := 0, 0
	for i < len(recs) && j < len(orphans) {
		if recs[i].Epoch <= orphans[j].Epoch {
			out = append(out, recs[i])
			i++
		} else {
			out = append(out, orphans[j])
			j++
		}
	}
	out = append(out, recs[i:]...)
	return append(out, orphans[j:]...)
}
