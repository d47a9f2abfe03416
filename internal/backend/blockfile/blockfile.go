// Package blockfile is the paged block-state backend: sealed blocks
// live in a fixed-slot file addressed by shard-local id (slot
// offset = id × SlotBytes), and the append-only log holds only tiny
// metadata records — so checkpoint compaction rewrites the metadata
// snapshot alone, never the payloads, and capacity is disk-bound instead
// of RAM-bound (the WAL backend keeps every sealed block in a map and
// rewrites all of them per snapshot).
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
// blocks.dat is opened buffered: a resident slot is read from the
// kernel's page cache, and a slot write is a copy into it. Runs of
// consecutive locals coalesce into single WriteAt calls, and GetMany
// preads coalesce the same way. On Linux a helper goroutine starts the
// slot file's writeback each time the open batch's held records cross a
// quarter of GroupCommit (sync_file_range, SYNC_FILE_RANGE_WRITE only),
// so the group commit's data sync finds most of the group's pages
// already written and waits only for the rest (DESIGN.md §12). The
// helper is the backend's only goroutine; it never syncs, and it is
// stopped before the slot file closes.
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

	// maxRunSlots caps one coalesced read/write run (and the scratch
	// buffer it is staged in) at 64 KiB.
	maxRunSlots = 128

	// maxSlots bounds accepted locals: matches the store's 2^40-block
	// capacity cap and keeps slot offsets far from int64 overflow.
	maxSlots = 1 << 40
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
}

// Backend is a durable paged block-state backend over one directory.
type Backend struct {
	dir string
	opt Options

	dataF *os.File // blocks.dat
	logF  *os.File
	lockF *os.File
	recs  []byte // framed records held until the commit's data sync

	present []uint64 // bitmap of stored slots (the only per-block RAM)
	count   int

	scratch []byte // slot I/O buffer, maxRunSlots slots

	reserved uint64 // highest durably reserved sealing epoch

	meta      []byte // what load found, until Recovered hands it over
	metaEpoch uint64
	tail      []backend.TailOp // likewise
	seq       uint64

	pending int
	closed  bool
	failErr error

	// wbKick wakes the writeback helper and wbDone closes when it has
	// exited; both are nil where no helper runs (writeback_linux.go).
	wbKick chan struct{}
	wbDone chan struct{}

	durable.Fsync // commit-path (data+log) fsync telemetry; FsyncStats
}

// Open creates or recovers the backend rooted at dir. The directory is
// exclusively locked for the backend's lifetime.
func Open(dir string, opt Options) (*Backend, error) {
	opt.GroupCommit = durable.GroupCommit(opt.GroupCommit)
	lock, err := format.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	b := &Backend{dir: dir, opt: opt, lockF: lock}
	if err := b.load(); err != nil {
		return nil, b.fail(err) // closes what was opened, releases the lock
	}
	b.scratch = make([]byte, maxRunSlots*SlotBytes)
	b.recs = make([]byte, 0, (b.opt.GroupCommit+1)*recSize)
	b.startWriteback()
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

func validatePut(local uint64, sb backend.Sealed) error {
	if len(sb.Ct) != crypt.BlockBytes {
		return fmt.Errorf("blockfile: ciphertext must be %d bytes, got %d", crypt.BlockBytes, len(sb.Ct))
	}
	if local >= maxSlots {
		return fmt.Errorf("blockfile: block id %d is out of slot range", local)
	}
	return nil
}

// Get implements backend.Backend: one slot pread. Runtime reads parse
// the header without re-verifying the CRC — torn detection is the
// recovery scan's job, and integrity of a served payload is enforced
// above this layer by the protocol's epoch-consistency check (a
// mismatched epoch fails the read loudly). An I/O error on a present
// slot surfaces the same way: the impossible epoch below can never
// match the engine's expectation.
func (b *Backend) Get(local uint64) (backend.Sealed, bool) {
	if b.closed || !b.isPresent(local) {
		return backend.Sealed{}, false
	}
	buf := b.scratch[:SlotBytes]
	if _, err := b.dataF.ReadAt(buf, int64(local)*SlotBytes); err != nil {
		return backend.Sealed{Ct: make([]byte, crypt.BlockBytes), Epoch: ^uint64(0)}, true
	}
	ct := append([]byte(nil), buf[24:24+crypt.BlockBytes]...)
	return backend.Sealed{Ct: ct, Epoch: binary.LittleEndian.Uint64(buf[16:24])}, true
}

// GetMany implements backend.VectorBackend: runs of consecutive locals
// coalesce into single preads. Duplicate or aliasing ids simply read
// the same slot again — each position gets an independent copy.
func (b *Backend) GetMany(locals []uint64, out []backend.Sealed, ok []bool) {
	for start := 0; start < len(locals); {
		end := start + 1
		for end < len(locals) && end-start < maxRunSlots && locals[end] == locals[end-1]+1 {
			end++
		}
		b.readRun(locals[start:end], out[start:end], ok[start:end])
		start = end
	}
}

// readRun serves one consecutive-locals run from a single pread.
func (b *Backend) readRun(locals []uint64, out []backend.Sealed, ok []bool) {
	any := false
	for _, l := range locals {
		if !b.closed && b.isPresent(l) {
			any = true
			break
		}
	}
	if !any {
		for i := range out {
			out[i], ok[i] = backend.Sealed{}, false
		}
		return
	}
	buf := b.scratch[:len(locals)*SlotBytes]
	n, err := b.dataF.ReadAt(buf, int64(locals[0])*SlotBytes)
	if err != nil && err != io.EOF {
		for i, l := range locals {
			out[i], ok[i] = b.Get(l) // per-slot fallback surfaces errors like Get
		}
		return
	}
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	for i, l := range locals {
		if !b.isPresent(l) {
			out[i], ok[i] = backend.Sealed{}, false
			continue
		}
		s := buf[i*SlotBytes : (i+1)*SlotBytes]
		ct := append([]byte(nil), s[24:24+crypt.BlockBytes]...)
		out[i], ok[i] = backend.Sealed{Ct: ct, Epoch: binary.LittleEndian.Uint64(s[16:24])}, true
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
// exactly like the WAL.
func (b *Backend) PutMany(ops []backend.PutOp) error {
	if b.closed {
		return format.ClosedErr(b.failErr)
	}
	if len(ops) == 0 {
		return nil
	}
	maxE := uint64(0)
	for _, op := range ops {
		if err := validatePut(op.Local, op.Sb); err != nil {
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
		b.appendRecord(op.Local, op.Sb.Epoch)
	}
	held := b.pending
	b.pending += len(ops)
	if b.pending >= b.opt.GroupCommit {
		if err := b.commit(); err != nil {
			return err
		}
	} else {
		b.kickWriteback(held)
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
	b.appendRecord(backend.EpochReserveLocal, r)
	// The full commit: records held ahead of the reservation reach the
	// log with it, after their slots are synced.
	if err := b.commit(); err != nil {
		return err
	}
	b.reserved = r
	return nil
}

// appendRecord frames one metadata record and holds it for the commit.
func (b *Backend) appendRecord(local, epoch uint64) {
	var rec [recSize]byte
	durable.Frame(rec[:], local, epoch, nil)
	b.recs = append(b.recs, rec[:]...)
}

// kickWriteback wakes the writeback helper when the open batch's held
// records crossed a multiple of GroupCommit/4 on their way up from held.
// The send never blocks: a hint already queued covers these pages too.
func (b *Backend) kickWriteback(held int) {
	if b.wbKick == nil {
		return
	}
	if q := b.opt.GroupCommit / 4; b.pending/q != held/q {
		select {
		case b.wbKick <- struct{}{}:
		default:
		}
	}
}

// stopWriteback stops the writeback helper and waits for it to exit, so
// no hint is in flight when the slot file closes.
func (b *Backend) stopWriteback() {
	if b.wbKick != nil {
		close(b.wbKick)
		<-b.wbDone
		b.wbKick, b.wbDone = nil, nil
	}
}

// syncFile is the commit's fsync; a variable so a test can observe it.
var syncFile = durable.TimedSync

// commit completes one group-commit batch: sync the slot file, write the
// held records in one write, then sync the log. No record reaches the
// log file before its slot is synced, so the kernel can never write a
// record back ahead of the slot it names.
func (b *Backend) commit() error {
	if err := syncFile(&b.Fsync, b.dataF); err != nil {
		return b.fail(fmt.Errorf("blockfile: %w", err))
	}
	if len(b.recs) > 0 {
		if _, err := b.logF.Write(b.recs); err != nil {
			return b.fail(fmt.Errorf("blockfile: %w", err))
		}
		b.recs = b.recs[:0]
	}
	if err := syncFile(&b.Fsync, b.logF); err != nil {
		return b.fail(fmt.Errorf("blockfile: %w", err))
	}
	b.pending = 0
	return nil
}

// Flush implements backend.Backend. Failure semantics follow the WAL:
// any flush or sync failure wedges the backend (the fsync-retry trap).
func (b *Backend) Flush() error {
	if b.closed {
		return format.ClosedErr(b.failErr)
	}
	return b.commit()
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
	if err := b.commit(); err != nil {
		return err
	}
	newSeq := b.seq + 1
	f, err := format.Checkpoint(b.dir, newSeq, meta, metaEpoch, nil, b.fail)
	if err != nil {
		return err
	}
	b.logF.Close()
	b.logF = f
	b.pending = 0
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
	b.stopWriteback()
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
func (b *Backend) fail(err error) error {
	if !b.closed {
		b.closed = true
		b.failErr = err
	}
	b.stopWriteback()
	if b.logF != nil {
		b.logF.Close()
		b.logF = nil
	}
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
