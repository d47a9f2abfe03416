package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/rng"
)

// TestWALHeapPerBlock pins the backend's live heap per stored block. The
// blocks live in the snapshot file and in the log; what stays on the heap
// is recent's index, 4 bytes per id written since the snapshot, and the
// two batch buffers. The RAM mirror the WAL once kept cost 76 bytes a
// block (a 72-byte slot and 4 bytes of index), and the slab of the
// blocks written since the snapshot that followed it cost the same per
// block it held: 10.8 bytes a block after eight rounds, 77 with every
// block written since the snapshot. This layout reads 1.8 and 4.8.
func TestWALHeapPerBlock(t *testing.T) {
	const blocks = 1 << 14
	for _, tc := range []struct {
		name    string
		rounds  int     // rounds of blocks/rounds ids each
		ceiling float64 // bytes a block
	}{
		// A full prefill in eight rounds with a checkpoint after each, as
		// the shard's trigger spaces them: recent is empty at the end.
		{"eight_checkpointed_rounds", 8, 4},
		// Every block written since the last snapshot: recent indexes all.
		{"all_since_the_snapshot", 1, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC() // frees what the first one only finalized (closed files)
			runtime.ReadMemStats(&before)
			b := mustOpen(t, t.TempDir(), Options{Capacity: blocks})
			epoch := uint64(0)
			ops := make([]backend.PutOp, 16)
			per := uint64(blocks / tc.rounds)
			for round := uint64(0); round < uint64(tc.rounds); round++ {
				for id := round * per; id < (round+1)*per; id += uint64(len(ops)) {
					for j := range ops {
						epoch++
						ops[j] = backend.PutOp{Local: id + uint64(j), Sb: backend.Sealed{Ct: ct(byte(epoch)), Epoch: epoch}}
					}
					if err := b.PutMany(ops); err != nil {
						t.Fatal(err)
					}
				}
				if tc.rounds > 1 {
					epoch++
					if err := b.Checkpoint([]byte("meta"), epoch); err != nil {
						t.Fatal(err)
					}
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			if b.Len() != blocks {
				t.Fatalf("Len = %d, want %d", b.Len(), blocks)
			}
			perBlock := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / blocks
			runtime.KeepAlive(b)
			t.Logf("live heap %.1f bytes per stored block", perBlock)
			if perBlock > tc.ceiling {
				t.Errorf("the WAL holds %.1f bytes of heap per stored block, ceiling %.0f", perBlock, tc.ceiling)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// model is what a WAL should hold: the last write of every id.
type model map[uint64]backend.Sealed

// check compares every id below capacity and Len with m.
func (m model) check(t *testing.T, b *Backend, capacity uint64, when string) {
	t.Helper()
	if b.Len() != len(m) {
		t.Fatalf("%s: Len = %d, want %d", when, b.Len(), len(m))
	}
	for id := uint64(0); id < capacity; id++ {
		sb, ok := b.Get(id)
		want, held := m[id]
		if ok != held || ok && (sb.Epoch != want.Epoch || !bytes.Equal(sb.Ct, want.Ct)) {
			t.Fatalf("%s: Get(%d) = epoch %d ok=%v, want epoch %d ok=%v", when, id, sb.Epoch, ok, want.Epoch, held)
		}
	}
}

// section is the block section a snapshot of m must hold: every id
// ascending.
func (m model) section(capacity uint64) []byte {
	var out []byte
	for id := uint64(0); id < capacity; id++ {
		if sb, ok := m[id]; ok {
			out = binary.LittleEndian.AppendUint64(out, id)
			out = binary.LittleEndian.AppendUint64(out, sb.Epoch)
			out = append(out, sb.Ct...)
		}
	}
	return out
}

// checkSnapshot compares the snapshot file's block section with m's.
func (m model) checkSnapshot(t *testing.T, dir string, capacity uint64, when string) {
	t.Helper()
	img, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := blockSection(t, img)
	if !bytes.Equal(body, m.section(capacity)) {
		t.Fatalf("%s: the snapshot's block section is not the stored set in ascending id order", when)
	}
}

// TestSparseSnapshotReads: a snapshot whose ids have gaps is read by a
// binary search over its records' ids, before and after a reopen, and a
// checkpoint that merges new ids into the gaps writes them in order.
func TestSparseSnapshotReads(t *testing.T) {
	const capacity = 1 << 10
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 4, Capacity: capacity})
	m := model{}
	put := func(b *Backend, id, epoch uint64) {
		t.Helper()
		sb := backend.Sealed{Ct: ct(byte(id*7 + epoch)), Epoch: epoch}
		if err := b.Put(id, sb); err != nil {
			t.Fatal(err)
		}
		m[id] = sb
	}
	for i, id := range []uint64{5, 17, 300, 301, 302, 999} {
		put(b, id, uint64(i+1))
	}
	if err := b.Checkpoint(nil, 10); err != nil {
		t.Fatal(err)
	}
	if b.snap.top == b.snap.n {
		t.Fatal("a snapshot with gaps is read as dense")
	}
	m.check(t, b, capacity, "after the checkpoint")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = mustOpen(t, dir, Options{GroupCommit: 4, Capacity: capacity})
	if b.snap.top == b.snap.n || b.recent.Len() != 0 {
		t.Fatalf("reopened with %d records up to id %d and %d blocks in recent", b.snap.n, b.snap.top, b.recent.Len())
	}
	m.check(t, b, capacity, "after the reopen")
	// New ids before, between and after the snapshot's, and an overwrite.
	for i, id := range []uint64{0, 6, 17, 303, 1000, 1023} {
		put(b, id, uint64(20+i))
	}
	m.check(t, b, capacity, "with recent over the snapshot")
	if err := b.Checkpoint(nil, 40); err != nil {
		t.Fatal(err)
	}
	m.check(t, b, capacity, "after the merge")
	m.checkSnapshot(t, dir, capacity, "after the merge")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOverwriteAfterCheckpointServedFromRecent: a block rewritten after a
// checkpoint is read from its log record, which recent finds, not from
// the stale snapshot record, is counted once, survives a reopen through
// the log tail, and replaces the record at the next checkpoint.
func TestOverwriteAfterCheckpointServedFromRecent(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 4, Capacity: 64})
	for id := uint64(0); id < 64; id++ {
		if err := b.Put(id, backend.Sealed{Ct: ct(byte(id)), Epoch: id + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Checkpoint(nil, 100); err != nil {
		t.Fatal(err)
	}
	if b.snap.top != b.snap.n || b.recent.Len() != 0 {
		t.Fatal("a checkpoint of ids 0..63 did not leave a dense snapshot and an empty recent")
	}
	fresh := backend.Sealed{Ct: ct(0xEE), Epoch: 101}
	if err := b.Put(7, fresh); err != nil {
		t.Fatal(err)
	}
	got := func(b *Backend, when string) {
		t.Helper()
		if sb, ok := b.Get(7); !ok || sb.Epoch != fresh.Epoch || !bytes.Equal(sb.Ct, fresh.Ct) {
			t.Fatalf("%s: Get(7) = epoch %d ok=%v, want the overwrite", when, sb.Epoch, ok)
		}
		if b.Len() != 64 {
			t.Fatalf("%s: Len = %d, want 64", when, b.Len())
		}
	}
	got(b, "before the reopen")
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	crashWithoutSync(b) // no final checkpoint: the overwrite is in the log only
	b = mustOpen(t, dir, Options{GroupCommit: 4, Capacity: 64})
	got(b, "after the reopen")
	if err := b.Checkpoint(nil, 200); err != nil {
		t.Fatal(err)
	}
	got(b, "after the next checkpoint")
	if b.recent.Len() != 0 {
		t.Fatal("the checkpoint left recent full")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadsAcrossRemappingCheckpoints drives random scalar and vector
// puts, dense and with gaps, with a checkpoint — a new file mapped, the
// old one let go — after every round, and checks every read, Len and the
// snapshot's bytes against a model.
func TestReadsAcrossRemappingCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  uint64 // puts draw ids below it
	}{
		{"dense", 200},
		{"gaps", 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const capacity = 1 << 10
			dir := t.TempDir()
			b := mustOpen(t, dir, Options{GroupCommit: 8, Capacity: capacity})
			r := rng.New(3)
			m := model{}
			epoch := uint64(0)
			next := func() (uint64, backend.Sealed) {
				epoch++
				id := r.Uint64n(tc.ids)
				if tc.name == "dense" && epoch < tc.ids {
					id = epoch - 1 // fill every id first, so the store is dense
				}
				return id, backend.Sealed{Ct: ct(byte(id + epoch)), Epoch: epoch}
			}
			for round := 0; round < 6; round++ {
				for i := 0; i < 150; i++ {
					if i%3 == 0 {
						ops := make([]backend.PutOp, 1+r.Uint64n(6))
						for j := range ops {
							ops[j].Local, ops[j].Sb = next()
						}
						if err := b.PutMany(ops); err != nil {
							t.Fatal(err)
						}
						for _, op := range ops {
							m[op.Local] = op.Sb
						}
						continue
					}
					id, sb := next()
					if err := b.Put(id, sb); err != nil {
						t.Fatal(err)
					}
					m[id] = sb
				}
				m.check(t, b, capacity, "before a checkpoint")
				epoch++
				if err := b.Checkpoint([]byte("meta"), epoch); err != nil {
					t.Fatal(err)
				}
				m.check(t, b, capacity, "after a checkpoint")
				m.checkSnapshot(t, dir, capacity, "after a checkpoint")
			}
			if dense := b.snap.top == b.snap.n; dense != (tc.name == "dense") {
				t.Fatalf("the last snapshot is read as dense=%v", dense)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b = mustOpen(t, dir, Options{Capacity: capacity})
			m.check(t, b, capacity, "after the reopen")
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTruncatedSnapshotReadsUnreadable: a snapshot file cut short under
// the mapping reads its lost records as the unreadable epoch — a fault
// caught, not a crash — and a checkpoint that would copy them fails
// without wedging the backend or touching the directory, and the backend
// reads the file it had again.
func TestTruncatedSnapshotReadsUnreadable(t *testing.T) {
	const blocks = 512 // 40 KiB of records: several pages
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 4, Capacity: blocks})
	defer b.Close()
	for id := uint64(0); id < blocks; id++ {
		if err := b.Put(id, backend.Sealed{Ct: ct(byte(id)), Epoch: id + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Checkpoint(nil, 1000); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	if sb, ok := b.Get(0); !ok || sb.Epoch != 1 {
		t.Fatalf("Get(0), on the page the file kept, = epoch %d ok=%v", sb.Epoch, ok)
	}
	if sb, ok := b.Get(blocks - 1); !ok || sb.Epoch != unreadable {
		t.Fatalf("Get(%d) past the cut = epoch %d ok=%v, want the unreadable epoch", blocks-1, sb.Epoch, ok)
	}
	out, oks := make([]backend.Sealed, 2), make([]bool, 2)
	b.GetMany([]uint64{blocks - 2, 1}, out, oks)
	if !oks[0] || out[0].Epoch != unreadable || !oks[1] || out[1].Epoch != 2 {
		t.Fatalf("GetMany = epochs %d, %d", out[0].Epoch, out[1].Epoch)
	}
	if err := b.Checkpoint(nil, 1001); err == nil {
		t.Fatal("a checkpoint over a truncated snapshot succeeded")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 4096 {
		t.Fatalf("the failed checkpoint replaced the snapshot (size %v, err %v)", fi.Size(), err)
	}
	if sb, ok := b.Get(1); !ok || sb.Epoch != 2 {
		t.Fatalf("Get(1) after the failed checkpoint = epoch %d ok=%v, want the snapshot's record", sb.Epoch, ok)
	}
	if err := b.Put(3, backend.Sealed{Ct: ct(3), Epoch: 2000}); err != nil {
		t.Fatalf("the failed checkpoint wedged the backend: %v", err)
	}
}

// TestCheckpointFailureKeepsTheSnapshot: a checkpoint that fails before
// its payload runs leaves the backend reading the snapshot it had (one
// that fails in its payload is TestTruncatedSnapshotReadsUnreadable's).
func TestCheckpointFailureKeepsTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 4, Capacity: 64})
	defer b.Close()
	for id := uint64(0); id < 64; id++ {
		if err := b.Put(id, backend.Sealed{Ct: ct(byte(id)), Epoch: id + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Checkpoint(nil, 100); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for id := uint64(0); id < 64; id++ {
			if sb, ok := b.Get(id); !ok || sb.Epoch != id+1 || sb.Ct[0] != byte(id) {
				t.Fatalf("%s: Get(%d) = epoch %d ok=%v", when, id, sb.Epoch, ok)
			}
		}
	}
	// The temp file cannot be created: the payload never runs.
	tmp := filepath.Join(dir, snapName+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(nil, 101); err == nil {
		t.Fatal("a checkpoint over an uncreatable temp file succeeded")
	}
	check("after the failure")
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(nil, 102); err != nil {
		t.Fatal(err)
	}
	check("after a checkpoint that succeeded")
}

// TestLenCountsSnapshotAndRecent: Len is the union of the snapshot's ids
// and recent's, each id once, whether recent's came from puts or from the
// log replayed at Open.
func TestLenCountsSnapshotAndRecent(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1, Capacity: 100})
	put := func(b *Backend, ids ...uint64) {
		t.Helper()
		for _, id := range ids {
			if err := b.Put(id, backend.Sealed{Ct: ct(byte(id)), Epoch: id + 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantLen := func(b *Backend, want int, when string) {
		t.Helper()
		if b.Len() != want {
			t.Fatalf("%s: Len = %d, want %d", when, b.Len(), want)
		}
	}
	put(b, 0, 1, 2, 3, 10)
	if err := b.Checkpoint(nil, 50); err != nil {
		t.Fatal(err)
	}
	wantLen(b, 5, "after the checkpoint")
	put(b, 2, 3, 3, 4, 11, 11) // two held ids, two new ones
	wantLen(b, 7, "with recent over the snapshot")
	crashWithoutSync(b)
	b = mustOpen(t, dir, Options{GroupCommit: 1, Capacity: 100})
	wantLen(b, 7, "after replaying the log")
	if err := b.Checkpoint(nil, 60); err != nil {
		t.Fatal(err)
	}
	wantLen(b, 7, "after the merge")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIdsOutsideCapacityRefused: a snapshot whose CRC holds but
// whose ids do not fit the capacity — in order, out of order, or the
// largest id there is — is refused at Open, not indexed.
func TestSnapshotIdsOutsideCapacityRefused(t *testing.T) {
	for _, ids := range [][]uint64{{3, 70}, {70, 3}, {math.MaxUint64}} {
		dir := t.TempDir()
		b := mustOpen(t, dir, Options{Capacity: 100})
		for i := range ids {
			if err := b.Put(uint64(i), backend.Sealed{Ct: ct(byte(i)), Epoch: uint64(i) + 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Checkpoint(nil, 10); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, snapName)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		body, n := blockSection(t, img)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(body[i*blockRec:], ids[i])
		}
		binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.ChecksumIEEE(img[:len(img)-4]))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(dir, Options{Capacity: 64}); err == nil {
			r.Close()
			t.Fatalf("a snapshot holding ids %v opened at capacity 64", ids)
		}
	}
}
