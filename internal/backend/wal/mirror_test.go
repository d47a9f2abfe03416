package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"palermo/internal/backend"
	"palermo/internal/backend/durable"
	"palermo/internal/rng"
)

// TestCommitPipelineWindow pins the durability window Options.GroupCommit
// states. With the helper's fsync stalled nothing becomes durable, so
// every write the owner gets acknowledged before it first blocks is an
// acknowledged-but-unsynced one: the batch in the stalled commit and the
// open one — 2×GroupCommit − 1 scalar puts, and v−1 more for each vector
// of v that closed a batch.
func TestCommitPipelineWindow(t *testing.T) {
	const gc = 4
	for _, tc := range []struct {
		name   string
		vector int // records per put
		want   int // acknowledged records when the owner blocks
	}{
		{"scalar puts", 1, 2*gc - 1},
		// Two vectors of 3 close a batch of 6; the second batch's first
		// vector is acknowledged, its second blocks.
		{"vectors of 3", 3, 2*gc - 1 + (3 - 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stall, inSync := make(chan struct{}), make(chan struct{}, 1)
			real := syncLog
			syncLog = func(s *durable.Fsync, f *os.File) error {
				select {
				case inSync <- struct{}{}:
				default:
				}
				<-stall
				return real(s, f)
			}
			defer func() { syncLog = real }()

			b := mustOpen(t, t.TempDir(), Options{GroupCommit: gc})
			const puts = 40
			var acked atomic.Int64
			ownerDone := make(chan error, 1)
			go func() { // the owner: it alone touches b until ownerDone
				epoch := uint64(0)
				for i := 0; i < puts; i++ {
					ops := make([]backend.PutOp, tc.vector)
					for j := range ops {
						epoch++
						ops[j] = backend.PutOp{Local: epoch % 64, Sb: backend.Sealed{Ct: ct(byte(epoch)), Epoch: epoch}}
					}
					if err := b.PutMany(ops); err != nil {
						ownerDone <- err
						return
					}
					acked.Add(int64(len(ops)))
				}
				ownerDone <- nil
			}()

			<-inSync // the first batch is in its (stalled) fsync
			deadline := time.Now().Add(10 * time.Second)
			for acked.Load() < int64(tc.want) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			// Blocked is the absence of progress: give an owner that is not
			// blocked ample time to run past the bound.
			time.Sleep(50 * time.Millisecond)
			if got := acked.Load(); got != int64(tc.want) {
				t.Errorf("owner had %d records acknowledged and none fsynced when it stopped making progress, want %d", got, tc.want)
			}
			if n, _ := b.FsyncStats(); n != 0 {
				t.Errorf("%d fsyncs completed under a stalled sync", n)
			}
			close(stall)
			if err := <-ownerDone; err != nil {
				t.Fatal(err)
			}
			if got := acked.Load(); got != int64(puts*tc.vector) {
				t.Fatalf("owner finished with %d records acknowledged, want %d", got, puts*tc.vector)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPutAllocatesNothing: at steady state — ids already stored, no
// checkpoint — a logged Put frames into the open batch and points recent
// at the record, whether its commits run inside it or on the helper.
func TestPutAllocatesNothing(t *testing.T) {
	for _, gc := range []int{1, 8} {
		b := mustOpen(t, t.TempDir(), Options{GroupCommit: gc, Capacity: 256})
		sb := backend.Sealed{Ct: ct(0x5A), Epoch: 0}
		for id := uint64(0); id < 256; id++ {
			sb.Epoch++
			if err := b.Put(id, sb); err != nil {
				t.Fatal(err)
			}
		}
		id := uint64(0)
		allocs := testing.AllocsPerRun(500, func() {
			id = (id + 37) % 256
			sb.Epoch++
			if err := b.Put(id, sb); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("GroupCommit %d: Put allocates %.2f times per call, want 0", gc, allocs)
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("GroupCommit %d: Flush allocates %.2f times per call, want 0", gc, allocs)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// mirrorScript drives b through puts in scrambled id order with overwrites
// and vectors, a checkpoint in the middle and one at the end, so the
// snapshot left behind covers blocks written in an order unlike their ids'.
func mirrorScript(t *testing.T, b *Backend, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	epoch := uint64(0)
	sealed := func(local uint64) backend.Sealed {
		epoch++
		return backend.Sealed{Ct: ct(byte(local*5 + epoch)), Epoch: epoch}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			if r.Uint64n(3) == 0 {
				ops := make([]backend.PutOp, 1+r.Uint64n(5))
				for j := range ops {
					local := r.Uint64n(700)
					ops[j] = backend.PutOp{Local: local, Sb: sealed(local)}
				}
				if err := b.PutMany(ops); err != nil {
					t.Fatal(err)
				}
				continue
			}
			local := r.Uint64n(700)
			if err := b.Put(local, sealed(local)); err != nil {
				t.Fatal(err)
			}
		}
		epoch++
		if err := b.Checkpoint([]byte("sealed meta"), epoch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotBytesReproducible: the block section is written in
// ascending id order, so the same operation stream leaves the
// same snapshot file, byte for byte — which a map-ordered section never did.
func TestSnapshotBytesReproducible(t *testing.T) {
	var files [2][]byte
	for i := range files {
		dir := t.TempDir()
		b := mustOpen(t, dir, Options{GroupCommit: 16, Capacity: 1 << 10})
		mirrorScript(t, b, 42)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[i], err = os.ReadFile(filepath.Join(dir, snapName)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two runs of one operation stream wrote different snapshots (%d and %d bytes)", len(files[0]), len(files[1]))
	}
	body, n := blockSection(t, files[0])
	if n < 300 {
		t.Fatalf("snapshot holds only %d blocks", n)
	}
	for i := 1; i < n; i++ {
		if prev, cur := binary.LittleEndian.Uint64(body[(i-1)*80:]), binary.LittleEndian.Uint64(body[i*80:]); prev >= cur {
			t.Fatalf("block section is not ascending: id %d then %d", prev, cur)
		}
	}
}

// blockSection returns the n×80-byte block records of a snapshot image
// (aliasing it) and n.
func blockSection(t *testing.T, img []byte) ([]byte, int) {
	t.Helper()
	off := 28 + int(binary.LittleEndian.Uint32(img[24:28]))
	n := int(binary.LittleEndian.Uint64(img[off:]))
	body := img[off+8 : len(img)-4]
	if len(body) != n*80 {
		t.Fatalf("snapshot holds %d block bytes for %d blocks", len(body), n)
	}
	return body, n
}

// TestShuffledSnapshotLoads: snapshots written before the mirror was a slab
// list their blocks in map order. Any order must load to the same store,
// and the next checkpoint rewrites the section ascending.
func TestShuffledSnapshotLoads(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 16, Capacity: 1 << 10})
	mirrorScript(t, b, 7)
	type stored struct {
		ct    string
		epoch uint64
	}
	want := map[uint64]stored{}
	for local := uint64(0); local < 700; local++ {
		if sb, ok := b.Get(local); ok {
			want[local] = stored{string(sb.Ct), sb.Epoch}
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, snapName)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]byte(nil), img...)
	body, n := blockSection(t, img)
	r := rng.New(99)
	var tmp [80]byte
	for i := n - 1; i > 0; i-- { // Fisher-Yates over the 80-byte records
		j := int(r.Uint64n(uint64(i + 1)))
		copy(tmp[:], body[i*80:(i+1)*80])
		copy(body[i*80:(i+1)*80], body[j*80:(j+1)*80])
		copy(body[j*80:(j+1)*80], tmp[:])
	}
	if bytes.Equal(img, sorted) {
		t.Fatal("the shuffle left the section in order")
	}
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.ChecksumIEEE(img[:len(img)-4]))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{Capacity: 1 << 10})
	if re.Len() != len(want) {
		t.Fatalf("reopened with %d blocks, want %d", re.Len(), len(want))
	}
	for local, w := range want {
		if sb, ok := re.Get(local); !ok || sb.Epoch != w.epoch || string(sb.Ct) != w.ct {
			t.Fatalf("block %d = epoch %d ok=%v after loading a shuffled snapshot, want epoch %d", local, sb.Epoch, ok, w.epoch)
		}
	}
	meta, metaEpoch, _ := re.Recovered()
	if err := re.Checkpoint(meta, metaEpoch); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// Same blocks, same metadata, one checkpoint later: only seq differs
	// from the file the first life wrote, and with it the trailer CRC.
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sorted) || !bytes.Equal(got[16:len(got)-4], sorted[16:len(sorted)-4]) {
		t.Fatal("the checkpoint after a shuffled load did not rewrite the section in ascending order")
	}
}

// TestRecoveredHandsTheBlobOver: the backend keeps neither the blob it
// recovered nor the one it last checkpointed.
func TestRecoveredHandsTheBlobOver(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{})
	if err := b.Put(1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint([]byte("blob"), 2); err != nil {
		t.Fatal(err)
	}
	if b.meta != nil {
		t.Fatal("Checkpoint kept a copy of the blob")
	}
	if err := b.Put(2, backend.Sealed{Ct: ct(2), Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	meta, metaEpoch, tail := r.Recovered()
	if string(meta) != "blob" || metaEpoch != 2 || len(tail) != 1 {
		t.Fatalf("Recovered = %q@%d with %d tail ops", meta, metaEpoch, len(tail))
	}
	if r.meta != nil || r.tail != nil {
		t.Fatal("the backend still holds what Recovered handed over")
	}
}

// TestCapacityBoundsTheMirror: an id at or beyond Options.Capacity is
// refused before it is logged, and a directory holding one is refused at
// Open rather than indexed.
func TestCapacityBoundsTheMirror(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, dir, Options{GroupCommit: 1, Capacity: 100})
	if err := b.Put(100, backend.Sealed{Ct: ct(1), Epoch: 1}); err == nil {
		t.Fatal("Put at the capacity accepted")
	}
	if err := b.PutMany([]backend.PutOp{
		{Local: 1, Sb: backend.Sealed{Ct: ct(1), Epoch: 1}},
		{Local: 1 << 30, Sb: backend.Sealed{Ct: ct(2), Epoch: 2}},
	}); err == nil {
		t.Fatal("vector with a member beyond the capacity accepted")
	}
	if fi, err := os.Stat(filepath.Join(dir, logName)); err != nil || fi.Size() != headerSize {
		t.Fatalf("refused puts reached the log (size %d, err %v)", fi.Size(), err)
	}
	for _, local := range []uint64{99, 7} {
		if err := b.Put(local, backend.Sealed{Ct: ct(byte(local)), Epoch: local}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Capacity: 50}); err == nil {
		t.Fatal("a log holding block 99 opened at capacity 50")
	}
	r := mustOpen(t, dir, Options{Capacity: 100}) // the refusal left the directory usable and unlocked
	if err := r.Checkpoint(nil, 200); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Capacity: 50}); err == nil {
		t.Fatal("a snapshot holding block 99 opened at capacity 50")
	}
}
