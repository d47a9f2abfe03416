package blockfile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// crash simulates kill -9: every issued pwrite (slot WriteAt, committed
// log bytes) survives in the page cache, while records held for the next
// commit are lost with the process.
func crash(b *Backend) {
	b.slots.Close()
	b.logF.Close()
	b.dataF.Close()
	b.closed = true
	b.unlock()
}

func TestRoundTripAfterClose(t *testing.T) {
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
	if !b.Durable() {
		t.Fatal("blockfile backend must report durable")
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
	// 11 write records plus the trailing epoch-reservation bound.
	if len(tail) != 12 {
		t.Fatalf("tail = %d ops, want 11 writes + 1 reservation", len(tail))
	}
	if tail[10].Local != 3 || tail[10].Epoch != 99 {
		t.Fatalf("last write op = %+v, want local 3 epoch 99", tail[10])
	}
	last := tail[11]
	if last.Local != backend.EpochReserveLocal || last.Epoch < 99 {
		t.Fatalf("trailing op = %+v, want covering reservation", last)
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
	sb, ok := r.Get(3)
	if !ok || sb.Epoch != 99 || !bytes.Equal(sb.Ct, ct(0xEE)) {
		t.Fatalf("Get(3) = %+v ok=%v, want overwritten value", sb, ok)
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 2})
	for i := uint64(0); i < 200; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	metaBlob := []byte("sealed-controller-state")
	if err := b.Checkpoint(metaBlob, 777); err != nil {
		t.Fatal(err)
	}
	// The snapshot carries metadata only — its size must not scale with
	// the 200 stored payloads (that is the whole point of this engine).
	fi, err := os.Stat(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 1024 {
		t.Fatalf("snapshot is %d bytes — payloads leaked into it", fi.Size())
	}
	if lfi, err := os.Stat(filepath.Join(dir, logName)); err != nil || lfi.Size() != headerSize {
		t.Fatalf("log not reset after checkpoint (size %d, err %v)", lfi.Size(), err)
	}
	// Post-checkpoint writes form the new tail.
	if err := b.Put(300, backend.Sealed{Ct: ct(0xAB), Epoch: 900}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	meta, metaEpoch, tail := r.Recovered()
	if !bytes.Equal(meta, metaBlob) || metaEpoch != 777 {
		t.Fatalf("recovered meta %q/%d, want %q/777", meta, metaEpoch, metaBlob)
	}
	var writes []backend.TailOp
	for _, op := range tail {
		if op.Local != backend.EpochReserveLocal {
			writes = append(writes, op)
		}
	}
	if len(writes) != 1 || writes[0].Local != 300 {
		t.Fatalf("tail writes = %+v, want exactly the post-checkpoint write", writes)
	}
	if r.Len() != 201 {
		t.Fatalf("Len = %d, want 201", r.Len())
	}
	for i := uint64(0); i < 200; i++ {
		if sb, ok := r.Get(i); !ok || !bytes.Equal(sb.Ct, ct(byte(i))) {
			t.Fatalf("pre-checkpoint block %d not recovered from its slot", i)
		}
	}
}

// TestOrphanSlotsSynthesized: a kill -9 takes the buffered metadata
// records but the slot pwrites landed — recovery must synthesize the
// lost writes from the slot headers, in epoch order.
func TestOrphanSlotsSynthesized(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 64}) // records stay buffered
	for i := uint64(0); i < 5; i++ {
		if err := b.Put(10+i, backend.Sealed{Ct: ct(byte(i)), Epoch: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	crash(b)

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	_, _, tail := r.Recovered()
	if len(tail) != 6 {
		t.Fatalf("tail = %+v, want 5 synthesized orphans + reservation", tail)
	}
	for i := uint64(0); i < 5; i++ {
		if tail[i].Local != 10+i || tail[i].Epoch != 100+i {
			t.Fatalf("orphan %d = %+v, want local %d epoch %d", i, tail[i], 10+i, 100+i)
		}
	}
	if tail[5].Local != backend.EpochReserveLocal || tail[5].Epoch < 104 {
		t.Fatalf("trailing op = %+v, want covering reservation", tail[5])
	}
	if sb, ok := r.Get(12); !ok || !bytes.Equal(sb.Ct, ct(2)) {
		t.Fatalf("orphaned block not served: %+v %v", sb, ok)
	}
}

// TestTornSlotDiscardedUnderReservation: a power loss tears a slot
// mid-sector after its record was lost too. Recovery must discard the
// whole slot, serve nothing from it, and still cover its epoch with the
// durable reservation so the sealer can never reuse the IV.
func TestTornSlotDiscardedUnderReservation(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 64})
	if err := b.Put(7, backend.Sealed{Ct: ct(0x77), Epoch: 500}); err != nil {
		t.Fatal(err)
	}
	crash(b) // record lost; slot pwrite landed

	// Tear the slot: flip bytes mid-payload.
	path := filepath.Join(dir, dataName)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF}, 7*SlotBytes+40); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if _, ok := r.Get(7); ok {
		t.Fatal("torn slot was served")
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
	_, _, tail := r.Recovered()
	if len(tail) != 1 || tail[0].Local != backend.EpochReserveLocal || tail[0].Epoch < 500 {
		t.Fatalf("tail = %+v, want only a reservation covering epoch 500", tail)
	}
	// The slot must have been durably zeroed, not left to resurface.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !allZero(data[7*SlotBytes : 8*SlotBytes]) {
		t.Fatal("torn slot not zeroed on disk")
	}
}

func TestTornLogTailTruncated(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1})
	for i := uint64(0); i < 5; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	path := filepath.Join(dir, logName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-recSize/2); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	// The chopped record's write survives anyway: its slot is intact, so
	// it comes back as an orphan. Blocks 0..3 are logged, 4 is orphaned.
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	_, _, tail := r.Recovered()
	var writes []backend.TailOp
	for _, op := range tail {
		if op.Local != backend.EpochReserveLocal {
			writes = append(writes, op)
		}
	}
	if len(writes) != 5 || writes[4].Local != 4 {
		t.Fatalf("tail writes = %+v, want blocks 0..4 in epoch order", writes)
	}
}

func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1})
	for i := uint64(0); i < 5; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the second record; intact records follow, so this is
	// corruption, not a crash tail — recovery must refuse.
	if _, err := f.WriteAt([]byte{0xAA}, headerSize+recSize+recSize+4); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-log corruption not refused: %v", err)
	}
}

func TestLogRemovedRefused(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{})
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint([]byte("meta"), 9); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := os.Remove(filepath.Join(dir, logName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("removed log not refused: %v", err)
	}
}

func TestSnapshotRolledBackRefused(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{})
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint([]byte("meta"), 9); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := os.Remove(filepath.Join(dir, snapName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("rolled-back snapshot not refused: %v", err)
	}
}

// TestStaleLogDiscarded: crash between snapshot rename and log reset
// leaves the previous checkpoint's log next to the new snapshot. Its
// records are already folded into the snapshot's metadata; recovery
// must discard them — the payloads live on in their slots regardless.
func TestStaleLogDiscarded(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1})
	for i := uint64(0); i < 4; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	oldLog, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint([]byte("meta"), 50); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := os.WriteFile(filepath.Join(dir, logName), oldLog, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	meta, metaEpoch, tail := r.Recovered()
	if string(meta) != "meta" || metaEpoch != 50 {
		t.Fatalf("recovered %q/%d, want meta/50", meta, metaEpoch)
	}
	if len(tail) != 0 {
		t.Fatalf("tail = %+v, want empty (stale log discarded)", tail)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (slots survive the discard)", r.Len())
	}
	for i := uint64(0); i < 4; i++ {
		if sb, ok := r.Get(i); !ok || !bytes.Equal(sb.Ct, ct(byte(i))) {
			t.Fatalf("block %d lost", i)
		}
	}
}

func TestSecondOpenLocked(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{})
	defer b.Close()
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second open not excluded: %v", err)
	}
}

func TestPutManyCoalescedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 64})
	ops := []backend.PutOp{
		{Local: 5, Sb: backend.Sealed{Ct: ct(5), Epoch: 1}},
		{Local: 6, Sb: backend.Sealed{Ct: ct(6), Epoch: 2}},
		{Local: 7, Sb: backend.Sealed{Ct: ct(7), Epoch: 3}},
		{Local: 2, Sb: backend.Sealed{Ct: ct(2), Epoch: 4}},
		{Local: 6, Sb: backend.Sealed{Ct: ct(0xBB), Epoch: 5}}, // duplicate id: last wins
	}
	if err := b.PutMany(ops); err != nil {
		t.Fatal(err)
	}
	if sb, ok := b.Get(6); !ok || !bytes.Equal(sb.Ct, ct(0xBB)) || sb.Epoch != 5 {
		t.Fatalf("Get(6) = %+v %v, want the later duplicate", sb, ok)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	_, _, tail := r.Recovered()
	var writes []backend.TailOp
	for _, op := range tail {
		if op.Local != backend.EpochReserveLocal {
			writes = append(writes, op)
		}
	}
	if len(writes) != 5 || writes[4].Local != 6 || writes[4].Epoch != 5 {
		t.Fatalf("tail writes = %+v, want all 5 in submission order", writes)
	}
	if sb, ok := r.Get(6); !ok || !bytes.Equal(sb.Ct, ct(0xBB)) {
		t.Fatalf("duplicate overwrite lost across reopen: %+v %v", sb, ok)
	}
}

// TestCrashAfterPutManyRecoversAll: the vector's slot pwrites were all
// issued before the crash took the buffered records — every block must
// come back, epoch-ordered, as orphans.
func TestCrashAfterPutManyRecoversAll(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1 << 10})
	ops := make([]backend.PutOp, 20)
	for i := range ops {
		ops[i] = backend.PutOp{Local: uint64(i), Sb: backend.Sealed{Ct: ct(byte(i)), Epoch: uint64(i) + 1}}
	}
	if err := b.PutMany(ops); err != nil {
		t.Fatal(err)
	}
	crash(b)

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if r.Len() != 20 {
		t.Fatalf("Len = %d, want 20", r.Len())
	}
	_, _, tail := r.Recovered()
	prev := uint64(0)
	writes := 0
	for _, op := range tail {
		if op.Local == backend.EpochReserveLocal {
			continue
		}
		if op.Epoch <= prev {
			t.Fatalf("tail not epoch-ordered: %+v", tail)
		}
		prev = op.Epoch
		writes++
	}
	if writes != 20 {
		t.Fatalf("recovered %d writes, want 20", writes)
	}
}

func TestGetManyDuplicatesAndRuns(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{})
	defer b.Close()
	for i := uint64(0); i < 8; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	locals := []uint64{3, 4, 5, 3, 3, 100, 6, 7, 0}
	out := make([]backend.Sealed, len(locals))
	ok := make([]bool, len(locals))
	b.GetMany(locals, out, ok)
	for i, l := range locals {
		want, wok := b.Get(l)
		if ok[i] != wok {
			t.Fatalf("pos %d (local %d): ok %v, Get says %v", i, l, ok[i], wok)
		}
		if wok && (!bytes.Equal(out[i].Ct, want.Ct) || out[i].Epoch != want.Epoch) {
			t.Fatalf("pos %d (local %d): GetMany disagrees with Get", i, l)
		}
	}
	// Each position must hold an independent copy, even for duplicates.
	out[3].Ct[0] ^= 0xFF
	if out[4].Ct[0] == out[3].Ct[0] {
		t.Fatal("duplicate positions alias one buffer")
	}
}

func TestValidateAndClosedErrors(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{})
	if err := b.Put(1, backend.Sealed{Ct: []byte{1, 2}, Epoch: 1}); err == nil {
		t.Fatal("short ciphertext accepted")
	}
	if err := b.Put(maxSlots, backend.Sealed{Ct: ct(1), Epoch: 1}); err == nil {
		t.Fatal("out-of-range local accepted")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err == nil {
		t.Fatal("Put after Close accepted")
	}
	if err := b.Flush(); err == nil {
		t.Fatal("Flush after Close accepted")
	}
}

// TestCommitSyncsSlotsBeforeRecords: a log record must never reach the
// log file before its slot is synced, or the kernel may write the record
// back first and a power loss leaves a durable record over a stale slot.
// Whenever blocks.dat is synced, meta.log must still end where the
// previous commit left it.
func TestCommitSyncsSlotsBeforeRecords(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, logName)
	logSize := func() int64 {
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	b := mustOpen(t, dir, Options{GroupCommit: 4})
	committed := logSize()
	dataSyncs := 0
	real := syncFile
	syncFile = func(s *durable.Fsync, f *os.File) error {
		if filepath.Base(f.Name()) == dataName {
			dataSyncs++
			if got := logSize(); got != committed {
				t.Errorf("data sync %d: meta.log is %d bytes, want %d (records written before their slots were synced)", dataSyncs, got, committed)
			}
			return real(s, f)
		}
		err := real(s, f)
		committed = logSize()
		return err
	}
	defer func() { syncFile = real }()

	ops := make([]backend.PutOp, 8) // twice GroupCommit in one vector
	for i := range ops {
		ops[i] = backend.PutOp{Local: uint64(i), Sb: backend.Sealed{Ct: ct(byte(i)), Epoch: uint64(i) + 1}}
	}
	if err := b.PutMany(ops); err != nil {
		t.Fatal(err)
	}
	for i := uint64(8); i < 20; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// 20 write records and the one reservation the first epoch took.
	if got, want := logSize(), int64(headerSize+21*recSize); got != want {
		t.Fatalf("meta.log is %d bytes, want %d", got, want)
	}
	if dataSyncs < 5 {
		t.Fatalf("%d data syncs, want one per commit (at least 5)", dataSyncs)
	}
}

// TestOneBatchDurabilityWindow pins the engine's half of DESIGN §9's
// durability window: the first GroupCommit − 1 scalar Puts start no
// commit, the Put that closes the batch returns with the batch's commit in
// flight, and the commit stays unsettled while its data sync stalls. Flush
// waits for it, and so does the Put that fills the next batch: at most one
// commit is in flight. Holding the closing write's acknowledgment until it
// settles is the serving worker's half (TestOneBatchWindowServed).
func TestOneBatchDurabilityWindow(t *testing.T) {
	const group = 8
	put := func(b *Backend, i uint64) error {
		return b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1})
	}
	// waits runs op, which must still be blocked after 20 ms; release
	// must then let it finish.
	waits := func(name string, op func() error, c *backend.Commit, release func()) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- op() }()
		time.Sleep(20 * time.Millisecond)
		select {
		case <-c.Done():
			t.Fatal("the commit settled while its data sync stalls")
		case err := <-done:
			t.Fatalf("%s returned (%v) while the commit in flight stalls", name, err)
		default:
		}
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		then func(b *Backend, c *backend.Commit, release func())
	}{
		{"flush", func(b *Backend, c *backend.Commit, release func()) {
			waits("Flush", b.Flush, c, release)
			if b.InFlight() != nil {
				t.Fatal("Flush left a commit in flight")
			}
		}},
		{"next batch", func(b *Backend, c *backend.Commit, release func()) {
			for i := uint64(group + 1); i < 2*group; i++ {
				if err := put(b, i); err != nil {
					t.Fatal(err)
				}
				if b.InFlight() != c {
					t.Fatalf("Put %d, short of the next batch, changed the commit in flight", i)
				}
			}
			waits("the Put that fills the next batch", func() error { return put(b, 2*group) }, c, release)
			if next := b.InFlight(); next == nil || next == c {
				t.Fatal("the next batch's commit is not in flight")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := mustOpen(t, t.TempDir(), Options{GroupCommit: group})
			defer b.Close()
			// Take the first epoch's reservation commit now, then empty
			// the batch.
			if err := put(b, 0); err != nil {
				t.Fatal(err)
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}

			entered, stall := make(chan struct{}, 1), make(chan struct{})
			real := syncFile
			syncFile = func(s *durable.Fsync, f *os.File) error {
				if filepath.Base(f.Name()) == dataName {
					select {
					case entered <- struct{}{}:
					default:
					}
					<-stall
				}
				return real(s, f)
			}
			var once sync.Once
			release := func() { once.Do(func() { close(stall) }) }
			defer func() {
				release()
				b.Close() // the helper reads syncFile until it settles the last commit
				syncFile = real
			}()

			for i := uint64(1); i < group; i++ {
				if err := put(b, i); err != nil {
					t.Fatal(err)
				}
				if b.InFlight() != nil {
					t.Fatalf("Put %d of a %d-record batch started a commit", i, group)
				}
			}
			closed := make(chan error, 1)
			go func() { closed <- put(b, group) }()
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the Put that closes the batch started no data sync")
			}
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the Put that closes the batch waits for its data sync; the commit belongs to the helper")
			}
			c := b.InFlight()
			if c == nil {
				t.Fatal("no commit in flight after the Put that closed the batch")
			}
			tc.then(b, c, release)
		})
	}
}

// TestWedgedReadsPresentSlotsUnreadable: once a failed commit wedges the
// backend, a slot it holds must not read as absent — the shard would
// serve a zero block for an id that was written. It reads as the
// unreadable epoch, which fails the shard's epoch check.
func TestWedgedReadsPresentSlotsUnreadable(t *testing.T) {
	b := mustOpen(t, t.TempDir(), Options{GroupCommit: 1})
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	real := syncFile
	syncFile = func(*durable.Fsync, *os.File) error { return errors.New("injected sync failure") }
	defer func() { syncFile = real }()
	if err := b.Put(2, backend.Sealed{Ct: ct(2), Epoch: 2}); err == nil {
		t.Fatal("Put over a failing sync succeeded")
	}
	if sb, ok := b.Get(1); !ok || sb.Epoch != unreadable {
		t.Fatalf("Get(1) on a wedged backend = epoch %d ok=%v, want present with the unreadable epoch", sb.Epoch, ok)
	}
	if _, ok := b.Get(3); ok {
		t.Fatal("never-written slot reads present on a wedged backend")
	}
}

// TestTruncatedDataReadsUnreadable: blocks.dat cut under a live backend
// leaves the mapping over pages that no longer exist. Reading one faults;
// Get must return the unreadable epoch instead of killing the process.
func TestTruncatedDataReadsUnreadable(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{})
	defer b.Close()
	for i := uint64(0); i < 10; i++ {
		if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if sb, ok := b.Get(3); !ok || sb.Epoch != 4 {
		t.Fatalf("Get(3) before the cut = epoch %d ok=%v", sb.Epoch, ok)
	}
	if err := os.Truncate(filepath.Join(dir, dataName), 0); err != nil {
		t.Fatal(err)
	}
	for _, l := range []uint64{0, 3, 9} {
		if sb, ok := b.Get(l); !ok || sb.Epoch != unreadable {
			t.Fatalf("Get(%d) after the cut = epoch %d ok=%v, want present with the unreadable epoch", l, sb.Epoch, ok)
		}
	}
}

// TestMappedReadsPastOpenSize: the mapping covers the capacity, not the
// file's size at Open, so slots the file grows by afterwards read back
// through it — in the first life and after a reopen.
func TestMappedReadsPastOpenSize(t *testing.T) {
	dir := t.TempDir()
	put := func(b *Backend, ids ...uint64) {
		t.Helper()
		for _, l := range ids {
			if err := b.Put(l, backend.Sealed{Ct: ct(byte(l)), Epoch: 10 + l}); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(b *Backend, ids ...uint64) {
		t.Helper()
		if runtime.GOOS == "linux" && !b.slots.Mapped() {
			t.Fatal("no read mapping on Linux")
		}
		for _, l := range ids {
			if sb, ok := b.Get(l); !ok || sb.Epoch != 10+l || !bytes.Equal(sb.Ct, ct(byte(l))) {
				t.Fatalf("Get(%d) = epoch %d ok=%v", l, sb.Epoch, ok)
			}
		}
	}
	b := mustOpen(t, dir, Options{Capacity: 1 << 14})
	put(b, 0, 1, 1000)
	check(b, 0, 1, 1000)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{Capacity: 1 << 14})
	defer r.Close()
	check(r, 0, 1, 1000)
	put(r, 5000, 1<<14-1)
	check(r, 0, 1, 1000, 5000, 1<<14-1)
}

// TestCapacityRefused: ids at or past Options.Capacity are refused by Put
// before anything is written, and at Open when the log or a slot holds
// one; a capacity past the slot limit is refused outright.
func TestCapacityRefused(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{Capacity: 16})
	if err := b.Put(15, backend.Sealed{Ct: ct(15), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(16, backend.Sealed{Ct: ct(16), Epoch: 2}); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("Put(16) at capacity 16 = %v, want a capacity refusal", err)
	}
	ops := []backend.PutOp{{Local: 3, Sb: backend.Sealed{Ct: ct(3), Epoch: 3}}, {Local: 99, Sb: backend.Sealed{Ct: ct(99), Epoch: 4}}}
	if err := b.PutMany(ops); err == nil {
		t.Fatal("PutMany past capacity accepted")
	}
	if _, ok := b.Get(3); ok || b.Len() != 1 {
		t.Fatalf("a refused vector stored blocks: Len %d", b.Len())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// A directory written at a larger capacity: refused while the log
	// names the id, and by the slot scan once a checkpoint folded it.
	w := mustOpen(t, dir, Options{})
	if err := w.Put(20, backend.Sealed{Ct: ct(20), Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Capacity: 16}); err == nil || !strings.Contains(err.Error(), logName) {
		t.Fatalf("log record past capacity not refused: %v", err)
	}
	w = mustOpen(t, dir, Options{})
	if err := w.Checkpoint([]byte("meta"), 9); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Capacity: 16}); err == nil || !strings.Contains(err.Error(), dataName) {
		t.Fatalf("slot past capacity not refused: %v", err)
	}
	if r, err := Open(dir, Options{Capacity: 21}); err != nil {
		t.Fatalf("capacity covering every id refused: %v", err)
	} else {
		r.Close()
	}
	if _, err := Open(t.TempDir(), Options{Capacity: maxSlots + 1}); err == nil {
		t.Fatal("capacity past the slot limit accepted")
	}
}

// TestReadAtFallback runs the read tests again with the mapping off, the
// path other platforms and a failed mapping take.
func TestReadAtFallback(t *testing.T) {
	withoutMapping(t)
	b := mustOpen(t, t.TempDir(), Options{})
	if b.slots.Mapped() {
		t.Fatal("mapping made with the mapping switched off")
	}
	b.Close()
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"RoundTripAfterClose", TestRoundTripAfterClose},
		{"CheckpointCompactsAndRecovers", TestCheckpointCompactsAndRecovers},
		{"PutManyCoalescedRoundTrip", TestPutManyCoalescedRoundTrip},
		{"GetManyDuplicatesAndRuns", TestGetManyDuplicatesAndRuns},
		{"TruncatedDataReadsUnreadable", TestTruncatedDataReadsUnreadable},
	} {
		t.Run(tc.name, tc.test)
	}
}

// TestBlockfilePutAllocs pins the write path at zero allocations: a record
// is framed in the spare capacity of the held records, not in a local
// array that escapes through the CRC call. At GroupCommit 1 every call
// runs its own commit inline, so the pin covers the commit too; at
// GroupCommit 256 the measured calls stay inside one batch.
func TestBlockfilePutAllocs(t *testing.T) {
	payload := ct(0xA5)
	for _, gc := range []int{1, 256} {
		b := mustOpen(t, t.TempDir(), Options{GroupCommit: gc})
		i := uint64(0)
		put := testing.AllocsPerRun(100, func() {
			i++
			if err := b.Put(i%64, backend.Sealed{Ct: payload, Epoch: i}); err != nil {
				t.Fatal(err)
			}
		})
		ops := make([]backend.PutOp, 8)
		putMany := testing.AllocsPerRun(15, func() {
			for j := range ops {
				i++
				ops[j] = backend.PutOp{Local: 64 + uint64(j), Sb: backend.Sealed{Ct: payload, Epoch: i}}
			}
			if err := b.PutMany(ops); err != nil {
				t.Fatal(err)
			}
		})
		if put != 0 || putMany != 0 {
			t.Errorf("GroupCommit %d: Put allocates %.0f times, PutMany of 8 %.0f, want 0", gc, put, putMany)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
