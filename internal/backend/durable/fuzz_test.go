package durable

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fixtureSeeds adds the log or snapshot files of the committed store
// directories (testdata/durable, written by earlier commits) to a corpus.
func fixtureSeeds(f *testing.F, names ...string) [][]byte {
	var seeds [][]byte
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "durable", name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzLogRecover throws arbitrary log images at Recover under both record
// sizes (the wide one with the WAL's group rule): no panic and no
// out-of-range slice; a refusal leaves the file as it was; and an accepted
// log re-encodes — header at the snapshot's seq plus every replayed record
// reframed from its fields — to exactly the bytes left on disk.
func FuzzLogRecover(f *testing.F) {
	for i, seed := range fixtureSeeds(f, "blockfile/shard-0000/meta.log", "wal/shard-0000/wal.log") {
		f.Add(seed, uint64(1), i == 1)
		f.Add(seed, uint64(2), i == 1)
	}
	for i := range testFormats {
		tf, wide := &testFormats[i], i == 1
		full := tf.logImage(3, 4)
		f.Add(full, uint64(3), wide)
		f.Add(full, uint64(4), wide)                             // stale
		f.Add(full, uint64(2), wide)                             // ahead
		f.Add(full[:len(full)-tf.RecordSize/2], uint64(3), wide) // torn tail
		mid := append([]byte(nil), full...)
		mid[HeaderSize+tf.RecordSize+1] ^= 0x10
		f.Add(mid, uint64(3), wide) // mid-log corruption
		group := tf.Header(3)
		opener := make([]byte, tf.RecordSize)
		Frame(opener, ^uint64(0)-1, 2, nil)
		group = append(append(append(group, opener...), tf.record(0)...), tf.record(1)...)
		f.Add(group, uint64(3), wide)
		f.Add(group[:len(group)-1], uint64(3), wide) // group cut short
	}

	f.Fuzz(func(t *testing.T, img []byte, snapSeq uint64, wide bool) {
		tf := &testFormats[0]
		var calls [][]byte
		r := replayInto(&calls)
		if wide {
			tf, r = &testFormats[1], groupReplay(&calls, nil)
		}
		dir := t.TempDir()
		tf.writeLog(t, dir, img)
		err := tf.recovered(dir, snapSeq, r)
		after := tf.readLog(t, dir)
		if err != nil {
			if !bytes.Equal(after, img) {
				t.Fatalf("refused (%v) but rewrote the log", err)
			}
			return
		}
		want := tf.Header(snapSeq)
		for _, recs := range calls {
			if len(recs) == 0 || len(recs)%tf.RecordSize != 0 {
				t.Fatalf("Apply received %d bytes", len(recs))
			}
			for ; len(recs) > 0; recs = recs[tf.RecordSize:] {
				rec := make([]byte, tf.RecordSize)
				local, epoch := Fields(recs)
				Frame(rec, local, epoch, recs[16:tf.RecordSize-4])
				want = append(want, rec...)
			}
		}
		if !bytes.Equal(after, want) {
			t.Fatalf("accepted a %d-byte log, left %d bytes, replayed records re-encode to %d", len(img), len(after), len(want))
		}
		if len(calls) > 0 && !bytes.HasPrefix(img, want) {
			t.Fatal("the replayed records are not a prefix of the log as found")
		}
	})
}

// FuzzSnapshotLoad: the snapshot decoder never panics, and whatever it
// accepts re-encodes to the identical file.
func FuzzSnapshotLoad(f *testing.F) {
	for i, seed := range fixtureSeeds(f, "blockfile/shard-0000/meta.snap", "wal/shard-0000/snapshot") {
		f.Add(seed, i == 1)
		f.Add(seed[:len(seed)/2], i == 1)
	}
	var small bytes.Buffer
	err := testFormats[0].encodeSnapshot(&small, 2, []byte("meta"), 9, func(w *bufio.Writer) { w.WriteString("section") })
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes(), false)
	f.Add(small.Bytes()[:snapFixed], false)
	f.Add([]byte{}, true)

	f.Fuzz(func(t *testing.T, img []byte, wal bool) {
		tf := &testFormats[0]
		if wal {
			tf = &testFormats[1]
		}
		s, err := tf.decodeSnapshot(img)
		if err != nil {
			return
		}
		var again bytes.Buffer
		err = tf.encodeSnapshot(&again, s.Seq, s.Meta, s.MetaEpoch, func(w *bufio.Writer) { w.Write(s.Payload) })
		if err != nil || !bytes.Equal(again.Bytes(), img) {
			t.Fatalf("accepted a %d-byte snapshot that re-encodes to %d bytes (%v)", len(img), again.Len(), err)
		}
	})
}

// FuzzStoreManifest throws arbitrary bytes at ReadManifest as a store's
// manifest.json, seeded with the committed fixtures' manifests: no input
// panics it, and an accepted manifest passes EnsureManifest against
// itself, so a store that read it would reopen the directory.
func FuzzStoreManifest(f *testing.F) {
	for _, seed := range fixtureSeeds(f, "wal/manifest.json", "blockfile/manifest.json") {
		f.Add(seed)
	}
	f.Add([]byte(`{"version":1,"blocks":1024,"shards":4}`))
	f.Add([]byte(`{"version":1,"blocks":1024,"shards":4,"engine":"tape","extra":[1,2]}`))
	f.Add([]byte(`{"version":1} {"garbage": true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			return
		}
		if err := EnsureManifest(dir, m); err != nil {
			t.Fatalf("ReadManifest accepted %+v, which EnsureManifest refuses against itself: %v", m, err)
		}
	})
}
