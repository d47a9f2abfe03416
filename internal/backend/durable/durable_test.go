package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The two formats in use (restated here: an in-package test cannot import
// the engines): blockfile's 20-byte metadata records and the WAL's 84-byte
// ciphertext-carrying ones. Every rule is checked at both.
var testFormats = []Format{
	{Engine: "blockfile", LogName: "meta.log", LogMagic: "PBFLOG01", SnapName: "meta.snap", SnapMagic: "PBFSNP01", RecordSize: 20},
	{Engine: "wal", LogName: "wal.log", LogMagic: "PALWAL01", SnapName: "snapshot", SnapMagic: "PALSNP01", RecordSize: 84},
}

func eachFormat(t *testing.T, run func(t *testing.T, f *Format)) {
	for i := range testFormats {
		f := &testFormats[i]
		t.Run(f.Engine, func(t *testing.T) { run(t, f) })
	}
}

// record frames the i-th test record of a log: distinct fields, and a
// payload (where the size leaves room for one) that depends on i.
func (f *Format) record(i int) []byte {
	rec := make([]byte, f.RecordSize)
	Frame(rec, uint64(100+i), uint64(1+i), bytes.Repeat([]byte{byte(0x40 + i)}, f.RecordSize-20))
	return rec
}

func (f *Format) logImage(seq uint64, records int) []byte {
	img := f.Header(seq)
	for i := 0; i < records; i++ {
		img = append(img, f.record(i)...)
	}
	return img
}

func (f *Format) writeLog(t *testing.T, dir string, img []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, f.LogName), img, 0o644); err != nil {
		t.Fatal(err)
	}
}

func (f *Format) readLog(t *testing.T, dir string) []byte {
	t.Helper()
	img, err := os.ReadFile(filepath.Join(dir, f.LogName))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// replayInto collects every applied byte, one call per element.
func replayInto(calls *[][]byte) Replay {
	return Replay{Apply: func(recs []byte) { *calls = append(*calls, append([]byte(nil), recs...)) }}
}

// recovered runs Recover and closes the handle it returns.
func (f *Format) recovered(dir string, snapSeq uint64, r Replay) error {
	log, err := f.Recover(dir, snapSeq, r)
	if err == nil {
		log.Close()
	}
	return err
}

func TestRecoverSequenceRules(t *testing.T) {
	eachFormat(t, func(t *testing.T, f *Format) {
		corruptHeader := f.logImage(1, 2)
		corruptHeader[9] ^= 0x01 // seq no longer matches the header CRC
		wrongMagic := f.logImage(1, 2)
		copy(wrongMagic, "NOTALOG!")
		midLog := f.logImage(1, 4)
		midLog[HeaderSize+f.RecordSize+3] ^= 0xFF // record 1 of 4: intact ones follow
		badTail := f.logImage(1, 4)
		badTail[HeaderSize+3*f.RecordSize+3] ^= 0xFF // record 3 of 4: nothing follows

		for _, tc := range []struct {
			name    string
			image   []byte // nil: no log file
			snapSeq uint64
			refused string // substring of the refusal; "" = accepted
			applied int    // records replayed (a refusal may come after some)
			after   []byte // the log on disk afterwards (nil: must not exist)
		}{
			{name: "missing log at seq 0 is initialised", snapSeq: 0, after: f.Header(0)},
			{name: "missing log under a checkpoint is refused", snapSeq: 3, refused: "missing"},
			{name: "log ahead of the snapshot is refused", image: f.logImage(2, 1), snapSeq: 1, refused: "rolled-back", after: f.logImage(2, 1)},
			{name: "stale log is discarded", image: f.logImage(1, 3), snapSeq: 2, after: f.Header(2)},
			{name: "current log is replayed", image: f.logImage(5, 3), snapSeq: 5, applied: 3, after: f.logImage(5, 3)},
			{name: "corrupt header is refused", image: corruptHeader, snapSeq: 1, refused: "corrupt header", after: corruptHeader},
			{name: "foreign magic is refused", image: wrongMagic, snapSeq: 1, refused: "corrupt header", after: wrongMagic},
			{name: "short header is refused", image: f.Header(1)[:HeaderSize-1], snapSeq: 1, refused: "corrupt header", after: f.Header(1)[:HeaderSize-1]},
			{name: "bad record followed by an intact one is refused", image: midLog, snapSeq: 1, refused: "not a crash tail", applied: 1, after: midLog},
			{name: "bad last record is a torn tail", image: badTail, snapSeq: 1, applied: 3, after: f.logImage(1, 3)},
		} {
			t.Run(tc.name, func(t *testing.T) {
				dir := t.TempDir()
				if tc.image != nil {
					f.writeLog(t, dir, tc.image)
				}
				var calls [][]byte
				err := f.recovered(dir, tc.snapSeq, replayInto(&calls))
				if tc.refused != "" {
					if err == nil || !strings.Contains(err.Error(), tc.refused) || !strings.HasPrefix(err.Error(), f.Engine+": ") {
						t.Fatalf("err = %v, want a %q refusal naming the engine", err, tc.refused)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				if len(calls) != tc.applied {
					t.Fatalf("replayed %d records, want %d", len(calls), tc.applied)
				}
				for i, rec := range calls {
					if !bytes.Equal(rec, f.record(i)) {
						t.Fatalf("record %d replayed as %x", i, rec)
					}
				}
				got, err := os.ReadFile(filepath.Join(dir, f.LogName))
				if tc.after == nil {
					if !os.IsNotExist(err) {
						t.Fatalf("a refused open created a log (%v)", err)
					}
				} else if err != nil || !bytes.Equal(got, tc.after) {
					t.Fatalf("log on disk is %d bytes (%v), want %d", len(got), err, len(tc.after))
				}
			})
		}
	})
}

// TestRecoverCutsTornTailAtEveryOffset: wherever inside the last record a
// crash stops the write, recovery keeps exactly the intact prefix.
func TestRecoverCutsTornTailAtEveryOffset(t *testing.T) {
	eachFormat(t, func(t *testing.T, f *Format) {
		full, prefix := f.logImage(1, 3), f.logImage(1, 2)
		for keep := 1; keep < f.RecordSize; keep++ {
			dir := t.TempDir()
			f.writeLog(t, dir, full[:len(prefix)+keep])
			var calls [][]byte
			if err := f.recovered(dir, 1, replayInto(&calls)); err != nil {
				t.Fatalf("%d bytes of the last record: %v", keep, err)
			}
			if len(calls) != 2 || !bytes.Equal(f.readLog(t, dir), prefix) {
				t.Fatalf("%d bytes of the last record: replayed %d, log is %d bytes, want 2 and %d",
					keep, len(calls), len(f.readLog(t, dir)), len(prefix))
			}
		}
	})
}

// TestRecoverAppendHandle: what Recover returns appends to the recovered
// log, whether it was replayed, cut or freshly initialised.
func TestRecoverAppendHandle(t *testing.T) {
	eachFormat(t, func(t *testing.T, f *Format) {
		dir := t.TempDir()
		for round := 0; round < 3; round++ {
			var calls [][]byte
			log, err := f.Recover(dir, 0, replayInto(&calls))
			if err != nil {
				t.Fatal(err)
			}
			if len(calls) != round {
				t.Fatalf("round %d replayed %d records", round, len(calls))
			}
			if _, err := log.Write(f.record(round)); err != nil {
				t.Fatal(err)
			}
			log.Close()
		}
	})
}

// groupReplay treats a record whose local is ^0-1 as opening a group of
// `epoch` followers — the shape of the WAL's batch header.
func groupReplay(calls *[][]byte, torn func(int) []byte) Replay {
	r := replayInto(calls)
	r.Group = func(rec []byte) int {
		local, n := Fields(rec)
		switch {
		case local != ^uint64(0)-1:
			return 0
		case n == 0 || n > 8:
			return -1
		}
		return int(n)
	}
	r.Torn = torn
	return r
}

func TestRecoverAtomicGroups(t *testing.T) {
	eachFormat(t, func(t *testing.T, f *Format) {
		rs := f.RecordSize
		opener := func(n uint64) []byte {
			rec := make([]byte, rs)
			Frame(rec, ^uint64(0)-1, n, nil)
			return rec
		}
		// record 0, then a group of three, then record 4.
		img := f.logImage(1, 1)
		groupAt := len(img)
		img = append(img, opener(3)...)
		for i := 1; i <= 4; i++ {
			img = append(img, f.record(i)...)
		}

		t.Run("intact group arrives whole", func(t *testing.T) {
			dir := t.TempDir()
			f.writeLog(t, dir, img)
			var calls [][]byte
			if err := f.recovered(dir, 1, groupReplay(&calls, nil)); err != nil {
				t.Fatal(err)
			}
			if len(calls) != 3 || len(calls[1]) != 4*rs || !bytes.Equal(calls[1], img[groupAt:groupAt+4*rs]) {
				t.Fatalf("calls = %d, group call %d bytes", len(calls), len(calls[1]))
			}
		})
		t.Run("group cut short is discarded from its opener", func(t *testing.T) {
			for _, end := range []int{groupAt + rs, groupAt + 2*rs + 5, groupAt + 4*rs - 1} {
				dir := t.TempDir()
				f.writeLog(t, dir, img[:end])
				var calls [][]byte
				over := f.record(9)
				tornRecords := 0
				err := f.recovered(dir, 1, groupReplay(&calls, func(n int) []byte { tornRecords = n; return over }))
				if err != nil {
					t.Fatal(err)
				}
				if want := (end - groupAt + rs - 1) / rs; len(calls) != 1 || tornRecords != want {
					t.Fatalf("end %d: %d calls, Torn(%d), want 1 and %d", end, len(calls), tornRecords, want)
				}
				if want := append(append([]byte(nil), img[:groupAt]...), over...); !bytes.Equal(f.readLog(t, dir), want) {
					t.Fatalf("end %d: log is not the prefix plus the replacement record", end)
				}
			}
		})
		t.Run("bad member with intact records behind it is refused", func(t *testing.T) {
			dir := t.TempDir()
			bad := append([]byte(nil), img...)
			bad[groupAt+2*rs+1] ^= 0x80
			f.writeLog(t, dir, bad)
			var calls [][]byte
			if err := f.recovered(dir, 1, groupReplay(&calls, nil)); err == nil || !strings.Contains(err.Error(), "not a crash tail") {
				t.Fatalf("err = %v", err)
			}
			if !bytes.Equal(f.readLog(t, dir), bad) {
				t.Fatal("a refused open modified the log")
			}
		})
		t.Run("impossible opener", func(t *testing.T) {
			bad := append(f.logImage(1, 1), opener(0)...)
			dir := t.TempDir()
			f.writeLog(t, dir, bad) // at the tail: cut
			var calls [][]byte
			if err := f.recovered(dir, 1, groupReplay(&calls, nil)); err != nil || !bytes.Equal(f.readLog(t, dir), f.logImage(1, 1)) {
				t.Fatalf("tail opener: err %v, log %d bytes", err, len(f.readLog(t, dir)))
			}
			f.writeLog(t, dir, append(bad, f.record(1)...)) // mid-log: refused
			if err := f.recovered(dir, 1, groupReplay(&calls, nil)); err == nil {
				t.Fatal("an impossible opener ahead of an intact record was accepted")
			}
		})
	})
}

func TestSnapshotRoundTripAndRefusals(t *testing.T) {
	eachFormat(t, func(t *testing.T, f *Format) {
		dir := t.TempDir()
		if s, err := f.LoadSnapshot(dir); s != nil || err != nil {
			t.Fatalf("empty directory loaded %+v, %v", s, err)
		}
		meta, section := []byte("sealed \x00 meta"), []byte("engine payload section")
		var wedged error
		wedge := func(err error) error { wedged = err; return err }
		log, err := f.Checkpoint(dir, 7, meta, 99, func(w *bufio.Writer) error { w.Write(section); return nil }, wedge)
		if err != nil || wedged != nil {
			t.Fatal(err, wedged)
		}
		log.Close()
		s, err := f.LoadSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if s.Seq != 7 || s.MetaEpoch != 99 || !bytes.Equal(s.Meta, meta) || !bytes.Equal(s.Payload, section) {
			t.Fatalf("loaded %+v", s)
		}
		if !bytes.Equal(f.readLog(t, dir), f.Header(7)) {
			t.Fatal("the checkpoint did not leave an empty log at its seq")
		}

		path := filepath.Join(dir, f.SnapName)
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		reseal := func(img []byte) []byte { // a valid trailer over a doctored body
			return binary.LittleEndian.AppendUint32(img[:len(img)-4], crc32.ChecksumIEEE(img[:len(img)-4]))
		}
		flipped := append([]byte(nil), good...)
		flipped[len(flipped)-1] ^= 0x01
		overrun := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(overrun[24:], uint32(len(good)-snapFixed+1)) // one byte past the body
		foreign := append([]byte(nil), good...)
		copy(foreign, "NOTASNAP")
		for name, img := range map[string][]byte{
			"flipped CRC":      flipped,
			"flipped body":     append(append([]byte(nil), good[:30]...), append([]byte{good[30] ^ 1}, good[31:]...)...),
			"short file":       good[:snapFixed-1],
			"empty file":       {},
			"cut mid-payload":  good[:len(good)-7],
			"metaLen overruns": reseal(overrun),
			"another format's": reseal(foreign),
		} {
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := f.LoadSnapshot(dir); err == nil || !strings.HasPrefix(err.Error(), f.Engine+": ") {
				t.Errorf("%s: loaded %+v, err %v", name, s, err)
			}
		}
	})
}

// TestCheckpointWedgesFromTheRename: a failure before the snapshot rename
// leaves the directory alone and the caller usable; any failure from the
// rename on goes through the caller's wedge.
func TestCheckpointWedgesFromTheRename(t *testing.T) {
	f := &testFormats[0]
	boom := errors.New("injected directory sync failure")
	for _, failAt := range []int{1, 2} { // 1: after the snapshot rename, 2: after the log rename
		dir := t.TempDir()
		f.writeLog(t, dir, f.logImage(0, 2))
		syncs := 0
		restore := SetSyncDir(func(string) error {
			if syncs++; syncs == failAt {
				return boom
			}
			return nil
		})
		var wedged error
		_, err := f.Checkpoint(dir, 1, []byte("m"), 5, nil, func(err error) error { wedged = err; return err })
		restore()
		if !errors.Is(err, boom) || wedged != err {
			t.Fatalf("sync %d failed: err %v, wedged with %v", failAt, err, wedged)
		}
		if s, err := f.LoadSnapshot(dir); err != nil || s == nil || s.Seq != 1 {
			t.Fatalf("sync %d failed: the renamed snapshot is %+v, %v", failAt, s, err)
		}
	}

	dir := t.TempDir()
	f.writeLog(t, dir, f.logImage(0, 2))
	if err := os.Mkdir(filepath.Join(dir, f.SnapName+".tmp"), 0o755); err != nil { // the temp file cannot be created
		t.Fatal(err)
	}
	_, err := f.Checkpoint(dir, 1, []byte("m"), 5, nil, func(err error) error {
		t.Errorf("wedged on a failure before the rename: %v", err)
		return err
	})
	if err == nil {
		t.Fatal("checkpoint over an uncreatable temp file succeeded")
	}
	if s, _ := f.LoadSnapshot(dir); s != nil || !bytes.Equal(f.readLog(t, dir), f.logImage(0, 2)) {
		t.Fatal("a checkpoint that failed before its rename changed the directory")
	}
}

// TestReplaceFileSyncsDirAfterRename: the parent directory is fsynced, and
// only once the new contents are reachable under the final name.
func TestReplaceFileSyncsDirAfterRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	var synced []string
	restore := SetSyncDir(func(d string) error {
		synced = append(synced, d)
		if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
			t.Errorf("directory synced while %s still held %q (%v)", path, got, err)
		}
		if names, _ := os.ReadDir(dir); len(names) != 1 {
			t.Errorf("directory synced with %d entries: the temp file is still linked", len(names))
		}
		return nil
	})
	err := ReplaceFile(path, []byte("new"))
	restore()
	if err != nil || len(synced) != 1 || synced[0] != dir {
		t.Fatalf("err %v, synced %q, want exactly %q", err, synced, dir)
	}

	boom := errors.New("injected")
	restore = SetSyncDir(func(string) error { return boom })
	err = ReplaceFile(path, []byte("newer"))
	restore()
	if !errors.Is(err, boom) {
		t.Fatalf("a failed directory sync was swallowed: %v", err)
	}
}

func TestOpenDirSingleOwner(t *testing.T) {
	f := &testFormats[0]
	dir := filepath.Join(t.TempDir(), "made", "on", "demand")
	lock, err := f.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenDir(dir); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second owner: %v", err)
	}
	lock.Close()
	lock, err = f.OpenDir(dir)
	if err != nil {
		t.Fatalf("the lock outlived its holder: %v", err)
	}
	lock.Close()
}

func TestGroupCommitDefaultAndCap(t *testing.T) {
	for in, want := range map[int]int{-1: DefaultGroupCommit, 0: DefaultGroupCommit, 1: 1, 500: 500, MaxGroupCommit + 1: MaxGroupCommit} {
		if got := GroupCommit(in); got != want {
			t.Errorf("GroupCommit(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestManifestGuardsConfig(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Version: ManifestVersion, Blocks: 1 << 10, Shards: 4}
	if err := EnsureManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if err := EnsureManifest(dir, m); err != nil {
		t.Fatalf("matching reopen rejected: %v", err)
	}
	bad := m
	bad.Shards = 8
	if err := EnsureManifest(dir, bad); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	bad = m
	bad.Blocks = 1 << 11
	if err := EnsureManifest(dir, bad); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
}
