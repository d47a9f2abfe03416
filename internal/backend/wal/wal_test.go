package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/backend/durable"
	"palermo/internal/crypt"
)

func ct(fill byte) []byte { return bytes.Repeat([]byte{fill}, crypt.BlockBytes) }

func mustOpen(t *testing.T, dir string, opt Options) *Backend {
	t.Helper()
	b, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWALRoundTripAfterClose(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 4})
	for i := uint64(0); i < 10; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one id: recovery must surface the later value.
	if err := b.Put(3, backend.Sealed{Ct: ct(0xEE), Epoch: 99}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	meta, _, tail := r.Recovered()
	if meta != nil {
		t.Fatalf("no checkpoint was written, got %d-byte meta", len(meta))
	}
	if len(tail) != 11 {
		t.Fatalf("tail = %d records, want 11 (every logged write, in order)", len(tail))
	}
	if tail[10].Local != 3 || tail[10].Epoch != 99 {
		t.Fatalf("last tail op = %+v, want local 3 epoch 99", tail[10])
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
	sb, ok := r.Get(3)
	if !ok || sb.Epoch != 99 || !bytes.Equal(sb.Ct, ct(0xEE)) {
		t.Fatalf("Get(3) = %+v ok=%v, want overwritten value", sb, ok)
	}
}

func TestWALCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 2})
	for i := uint64(0); i < 8; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	metaBlob := []byte("sealed-controller-state")
	if err := b.Checkpoint(metaBlob, 77); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes form the new tail.
	if err := b.Put(100, backend.Sealed{Ct: ct(0xAB), Epoch: 200}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	meta, metaEpoch, tail := r.Recovered()
	if !bytes.Equal(meta, metaBlob) || metaEpoch != 77 {
		t.Fatalf("recovered meta %q/%d, want %q/77", meta, metaEpoch, metaBlob)
	}
	if len(tail) != 1 || tail[0].Local != 100 {
		t.Fatalf("tail = %+v, want exactly the post-checkpoint write", tail)
	}
	if r.Len() != 9 {
		t.Fatalf("Len = %d, want 9 (8 snapshotted + 1 replayed)", r.Len())
	}
	for i := uint64(0); i < 8; i++ {
		if sb, ok := r.Get(i); !ok || !bytes.Equal(sb.Ct, ct(byte(i))) {
			t.Fatalf("snapshotted block %d not recovered", i)
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1}) // every Put fsynced
	for i := uint64(0); i < 5; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop the last record in half.
	path := filepath.Join(dir, logName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-recordSize/2); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	_, _, tail := r.Recovered()
	// 4 intact writes plus the synthetic epoch reservation covering the
	// torn record the disk observed (its epoch, 5, must never be reused).
	if len(tail) != 5 {
		t.Fatalf("tail = %d records after torn write, want 4 writes + 1 reservation", len(tail))
	}
	if last := tail[4]; last.Local != backend.EpochReserveLocal || last.Epoch != 5 {
		t.Fatalf("torn-tail reservation = %+v, want {Local: reserve, Epoch: 5}", last)
	}
	if _, ok := r.Get(4); ok {
		t.Fatal("torn record must not be recovered")
	}
	// The log now holds the 4 intact records plus the durably persisted
	// reservation that replaced the torn bytes — so a second crash before
	// any further write still cannot forget the observed epochs.
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerSize + 5*recordSize); fi.Size() != want {
		t.Fatalf("log size %d after truncation, want %d (4 records + persisted reservation)", fi.Size(), want)
	}
	r.Close()
	again := mustOpen(t, dir, Options{})
	defer again.Close()
	_, _, tail2 := again.Recovered()
	if len(tail2) != 5 || tail2[4].Local != backend.EpochReserveLocal || tail2[4].Epoch != 5 {
		t.Fatalf("second recovery tail = %+v, want the persisted reservation last", tail2)
	}
}

func TestWALMidLogCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1})
	for i := uint64(0); i < 6; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one ciphertext byte inside record 3. Intact, acknowledged
	// records follow it, so this is storage corruption, not a crash tail:
	// Open must refuse (truncating would silently drop records 4-6)
	// and must leave the file bytes untouched for inspection.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+3*recordSize+20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mid-log corruption with intact records after it must fail open")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatal("failed open must not modify the corrupt log")
	}
}

func TestWALStaleLogDiscarded(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1})
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint([]byte("m1"), 5); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash between snapshot rename and log reset: regress the
	// log to a pre-checkpoint one holding a record already in the snapshot.
	stale := filepath.Join(dir, logName)
	if err := writeLogHeader(stale+".stale", 0); err != nil {
		t.Fatal(err)
	}
	// A well-formed record that would regress block 1 if replayed.
	var rec [recordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], 1)
	binary.LittleEndian.PutUint64(rec[8:16], 0)
	copy(rec[16:16+crypt.BlockBytes], ct(0xBD))
	binary.LittleEndian.PutUint32(rec[recordSize-4:], crc32.ChecksumIEEE(rec[:recordSize-4]))
	f, err := os.OpenFile(stale+".stale", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Rename(stale+".stale", stale); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	_, _, tail := r.Recovered()
	if len(tail) != 0 {
		t.Fatalf("stale log replayed %d records, want 0", len(tail))
	}
	if sb, ok := r.Get(1); !ok || sb.Epoch != 1 {
		t.Fatalf("block 1 = %+v ok=%v, want the snapshotted epoch-1 value", sb, ok)
	}
}

func TestWALEpochReservationRecovered(t *testing.T) {
	// A crash after Checkpoint durably reserved its blob epoch but before
	// the snapshot landed leaves the reservation as the last log record.
	// Recovery must surface it in the tail (so the shard advances its
	// sealer) without inventing a block.
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1})
	if err := b.Put(4, backend.Sealed{Ct: ct(4), Epoch: 4}); err != nil {
		t.Fatal(err)
	}
	b.batch.Append(backend.EpochReserveLocal, 99, make([]byte, crypt.BlockBytes))
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: no snapshot follows the reservation.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	_, _, tail := r.Recovered()
	if len(tail) != 2 || tail[1].Local != backend.EpochReserveLocal || tail[1].Epoch != 99 {
		t.Fatalf("tail = %+v, want the write plus the epoch-99 reservation", tail)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (reservations carry no block)", r.Len())
	}
	if err := r.Put(backend.EpochReserveLocal, backend.Sealed{Ct: ct(0), Epoch: 1}); err == nil {
		t.Fatal("Put must reject the reserved id")
	}
}

func TestWALDirSingleOwner(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a live directory must fail")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	r.Close()
}

// crashWithoutSync simulates the process dying between append and fsync:
// held records reach the OS through the file write (a killed process
// does not lose the page cache), the batch in flight before the open one,
// but the open one is not fsynced, no Close checkpoint is written, and
// the directory lock drops as it would on process exit.
func crashWithoutSync(b *Backend) {
	b.batch.Settle() // the helper has written the batch in flight
	real := syncLog
	syncLog = func(*durable.Fsync, *os.File) error { return nil }
	b.batch.Commit() // the open batch's write, without its fsync
	syncLog = real
	b.batch.Stop()
	b.logF.Close()
	b.closed = true
	b.snap.close()
	b.unlock()
}

// TestPutManyBatchRoundTrip: a vector put lands as one batch-framed unit
// and recovers record for record, interleaved correctly with scalar puts.
func TestPutManyBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 64})
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	batch := []backend.PutOp{
		{Local: 2, Sb: backend.Sealed{Ct: ct(2), Epoch: 2}},
		{Local: 3, Sb: backend.Sealed{Ct: ct(3), Epoch: 3}},
		{Local: 2, Sb: backend.Sealed{Ct: ct(4), Epoch: 4}}, // same id twice: order matters
	}
	if err := b.PutMany(batch); err != nil {
		t.Fatal(err)
	}
	if err := b.PutMany([]backend.PutOp{{Local: 9, Sb: backend.Sealed{Ct: ct(9), Epoch: 5}}}); err != nil {
		t.Fatal(err) // single-op vector: plain record, byte-identical to Put
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	_, _, tail := r.Recovered()
	want := []backend.TailOp{
		{Local: 1, Epoch: 1}, {Local: 2, Epoch: 2}, {Local: 3, Epoch: 3},
		{Local: 2, Epoch: 4}, {Local: 9, Epoch: 5},
	}
	if len(tail) != len(want) {
		t.Fatalf("tail = %d records, want %d", len(tail), len(want))
	}
	for i, op := range want {
		if tail[i] != op {
			t.Fatalf("tail[%d] = %+v, want %+v", i, tail[i], op)
		}
	}
	if sb, ok := r.Get(2); !ok || sb.Epoch != 4 || !bytes.Equal(sb.Ct, ct(4)) {
		t.Fatalf("Get(2) = %+v ok=%v, want the batch's later value", sb, ok)
	}
}

// TestPutManyRejectsBadOps: validation covers every vector member before
// any byte is framed.
func TestPutManyRejectsBadOps(t *testing.T) {
	b := mustOpen(t, t.TempDir(), Options{})
	defer b.Close()
	if err := b.PutMany([]backend.PutOp{
		{Local: 1, Sb: backend.Sealed{Ct: ct(1), Epoch: 1}},
		{Local: 2, Sb: backend.Sealed{Ct: []byte("short"), Epoch: 2}},
	}); err == nil {
		t.Fatal("undersized ciphertext accepted in a vector")
	}
	if err := b.PutMany([]backend.PutOp{{Local: batchLocal, Sb: backend.Sealed{Ct: ct(1), Epoch: 1}}}); err == nil {
		t.Fatal("reserved batch-header id accepted")
	}
	if err := b.Put(batchLocal, backend.Sealed{Ct: ct(1), Epoch: 1}); err == nil {
		t.Fatal("reserved batch-header id accepted by Put")
	}
	if tail := len(b.tail); tail != 0 {
		t.Fatalf("rejected puts left %d tail records", tail)
	}
	if err := b.PutMany(nil); err != nil {
		t.Fatalf("empty vector: %v", err)
	}
}

// TestCrashMidPipelineBatchRecovery is the satellite scenario: a batch is
// appended (reaching the OS) but the process dies before its group
// commit's fsync. Recovery must replay the log to exactly the state a
// serial, synchronously-committed executor would have produced for the
// same acknowledged writes.
func TestCrashMidPipelineBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	// GroupCommit 64: nothing is committed during the run; the crash
	// lands squarely between append and fsync.
	b := mustOpen(t, dir, Options{GroupCommit: 64})
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutMany([]backend.PutOp{
		{Local: 2, Sb: backend.Sealed{Ct: ct(2), Epoch: 2}},
		{Local: 3, Sb: backend.Sealed{Ct: ct(3), Epoch: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	crashWithoutSync(b)

	// Serial reference: the same writes through a synchronous executor
	// with a clean crash at the same point.
	refDir := t.TempDir()
	ref := mustOpen(t, refDir, Options{GroupCommit: 1})
	for _, op := range []backend.TailOp{{Local: 1, Epoch: 1}, {Local: 2, Epoch: 2}, {Local: 3, Epoch: 3}} {
		if err := ref.Put(op.Local, backend.Sealed{Ct: ct(byte(op.Epoch)), Epoch: op.Epoch}); err != nil {
			t.Fatal(err)
		}
	}
	crashWithoutSync(ref)

	r, refR := mustOpen(t, dir, Options{}), mustOpen(t, refDir, Options{})
	defer r.Close()
	defer refR.Close()
	_, _, tail := r.Recovered()
	_, _, refTail := refR.Recovered()
	if len(tail) != len(refTail) {
		t.Fatalf("pipelined crash recovered %d tail records, serial %d", len(tail), len(refTail))
	}
	for i := range refTail {
		if tail[i] != refTail[i] {
			t.Fatalf("tail[%d] = %+v, serial-equivalent %+v", i, tail[i], refTail[i])
		}
	}
	if r.Len() != refR.Len() {
		t.Fatalf("recovered %d blocks, serial-equivalent %d", r.Len(), refR.Len())
	}
}

// TestTornBatchDiscardedWhole: a batch whose tail record the crash tore
// off is discarded entirely (never half an access), with a durable epoch
// reservation covering the observed-but-lost records.
func TestTornBatchDiscardedWhole(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 64})
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutMany([]backend.PutOp{
		{Local: 2, Sb: backend.Sealed{Ct: ct(2), Epoch: 2}},
		{Local: 3, Sb: backend.Sealed{Ct: ct(3), Epoch: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	crashWithoutSync(b)

	// Tear the batch: cut the log mid-way through its last member record.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-recordSize/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	_, _, tail := r.Recovered()
	// Only the pre-batch write survives, plus the synthetic epoch
	// reservation for the torn frames.
	if len(tail) < 2 || tail[0] != (backend.TailOp{Local: 1, Epoch: 1}) {
		t.Fatalf("tail = %+v, want the pre-batch record first", tail)
	}
	last := tail[len(tail)-1]
	if last.Local != backend.EpochReserveLocal || last.Epoch < 3 {
		t.Fatalf("torn batch left no covering epoch reservation: %+v", last)
	}
	if _, ok := r.Get(2); ok {
		t.Fatal("half-applied batch: member 2 survived a torn batch")
	}
	if _, ok := r.Get(3); ok {
		t.Fatal("half-applied batch: member 3 survived a torn batch")
	}
}

// TestCommitPipelineFlushBarrier: Flush with a commit on the helper is a
// full barrier — after it returns, reopening the directory (even after a
// simulated power cut discarding un-synced writes is impossible to fake
// here, so we assert the pending counter and sync path) sees every record.
func TestCommitPipelineFlushBarrier(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 8})
	for i := uint64(0); i < 20; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := b.batch.Pending(); n != 0 {
		t.Fatalf("pending = %d after Flush barrier", n)
	}
	if b.batch.InFlight() != nil {
		t.Fatal("a commit is in flight after Flush barrier")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if r.Len() != 20 {
		t.Fatalf("recovered %d blocks, want 20", r.Len())
	}
}

// TestGroupCommitOneStaysSynchronous: GroupCommit 1 is the per-write
// durability promise: no helper starts, and every Put commits inside it.
func TestGroupCommitOneStaysSynchronous(t *testing.T) {
	b := mustOpen(t, t.TempDir(), Options{GroupCommit: 1})
	defer b.Close()
	if done, _ := b.batch.Helper(); done != nil {
		t.Fatal("GroupCommit 1 started a commit helper")
	}
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if n := b.batch.Pending(); n != 0 {
		t.Fatalf("pending = %d after a synchronous gc=1 Put", n)
	}
	if n, _ := b.FsyncStats(); n != 1 {
		t.Fatalf("%d fsyncs after a synchronous gc=1 Put, want 1", n)
	}
}

// TestNotACommitter: the WAL acknowledges a write without waiting for the
// commit that covers it, so it must not offer the serving worker a commit
// to hold acknowledgments on.
func TestNotACommitter(t *testing.T) {
	var be backend.Backend = mustOpen(t, t.TempDir(), Options{})
	defer be.Close()
	if _, ok := be.(backend.Committer); ok {
		t.Fatal("*wal.Backend implements backend.Committer")
	}
}
