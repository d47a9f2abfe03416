package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// inPlace runs fn once over mapped regions and once with the mapping
// switched off, so the ReadAt path that builds without the mapping run
// is tested here too.
func inPlace(t *testing.T, fn func(t *testing.T, mapped bool)) {
	for _, mapped := range []bool{true, false} {
		name := "ReadAt"
		if mapped {
			if runtime.GOOS != "linux" {
				continue
			}
			name = "mapped"
		}
		t.Run(name, func(t *testing.T) {
			if !mapped {
				defer ReadWithoutMapping()()
			}
			fn(t, mapped)
		})
	}
}

// TestRegionReadsInPlace: ReadAt and WriteTo return the file's bytes, and
// once the file is cut short under the region both fail instead of
// crashing or returning fewer bytes.
func TestRegionReadsInPlace(t *testing.T) {
	inPlace(t, func(t *testing.T, mapped bool) {
		path := filepath.Join(t.TempDir(), "f")
		data := make([]byte, 3*4096+100)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenRegion(path, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if (r.m != nil) != mapped || r.size != int64(len(data)) {
			t.Fatalf("region mapped=%v size %d", r.m != nil, r.size)
		}
		buf := make([]byte, 80)
		if !r.ReadAt(buf, 9000) || !bytes.Equal(buf, data[9000:9080]) {
			t.Fatal("ReadAt returned other bytes than the file's")
		}
		if r.ReadAt(buf, int64(len(data))-79) || r.ReadAt(buf, -1) {
			t.Fatal("ReadAt past the end succeeded")
		}
		var w bytes.Buffer
		if err := Guarded(func() error { return r.WriteTo(&w, 100, 9000) }); err != nil || !bytes.Equal(w.Bytes(), data[100:9100]) {
			t.Fatalf("WriteTo: %v", err)
		}
		if err := os.Truncate(path, 4096); err != nil {
			t.Fatal(err)
		}
		if r.ReadAt(buf, 9000) {
			t.Fatal("ReadAt of a page cut from the file succeeded")
		}
		if !r.ReadAt(buf, 10) || !bytes.Equal(buf, data[10:90]) {
			t.Fatal("ReadAt of the page the file kept failed")
		}
		if err := Guarded(func() error { return r.WriteTo(&bytes.Buffer{}, 0, 9000) }); err == nil {
			t.Fatal("WriteTo across the cut succeeded")
		}
	})
}

// TestMapSnapshotMatchesLoad: MapSnapshot reads what LoadSnapshot reads
// from a good snapshot, leaving the payload in the file at the offset it
// reports, and refuses every image LoadSnapshot refuses.
func TestMapSnapshotMatchesLoad(t *testing.T) {
	eachFormat(t, func(t *testing.T, f *Format) {
		inPlace(t, func(t *testing.T, mapped bool) {
			dir := t.TempDir()
			if s, r, err := f.MapSnapshot(dir); s != nil || r != nil || err != nil {
				t.Fatalf("empty directory mapped %+v, %v", s, err)
			}
			meta, section := []byte("sealed \x00 meta"), []byte("engine payload section")
			log, err := f.Checkpoint(dir, 7, meta, 99, func(w *bufio.Writer) error { w.Write(section); return nil }, nil)
			if err != nil {
				t.Fatal(err)
			}
			log.Close()
			want, err := f.LoadSnapshot(dir)
			if err != nil {
				t.Fatal(err)
			}
			s, r, err := f.MapSnapshot(dir)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, s.PayloadLen)
			if !r.ReadAt(payload, s.PayloadOff) {
				t.Fatal("the payload cannot be read where MapSnapshot says it lies")
			}
			r.Close()
			if s.Seq != want.Seq || s.MetaEpoch != want.MetaEpoch || !bytes.Equal(s.Meta, want.Meta) ||
				s.Payload != nil || s.PayloadOff != want.PayloadOff || !bytes.Equal(payload, section) {
				t.Fatalf("mapped %+v, loaded %+v", s, want)
			}

			path := filepath.Join(dir, f.SnapName)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			reseal := func(img []byte) []byte {
				return binary.LittleEndian.AppendUint32(img[:len(img)-4], crc32.ChecksumIEEE(img[:len(img)-4]))
			}
			overrun := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(overrun[24:], uint32(len(good)-snapFixed+1))
			flipped := append([]byte(nil), good...)
			flipped[40] ^= 1
			for name, img := range map[string][]byte{
				"flipped body":     flipped,
				"short file":       good[:snapFixed-1],
				"empty file":       {},
				"cut mid-payload":  good[:len(good)-7],
				"metaLen overruns": reseal(overrun),
			} {
				if err := os.WriteFile(path, img, 0o644); err != nil {
					t.Fatal(err)
				}
				if s, r, err := f.MapSnapshot(dir); err == nil || r != nil || !strings.HasPrefix(err.Error(), f.Engine+": ") {
					t.Errorf("%s: mapped %+v, err %v", name, s, err)
				}
			}
		})
	})
}

// TestPayloadErrorFailsTheCheckpoint: a payload that returns an error
// leaves the directory as it was and is no wedge.
func TestPayloadErrorFailsTheCheckpoint(t *testing.T) {
	f := &testFormats[1]
	dir := t.TempDir()
	f.writeLog(t, dir, f.logImage(0, 2))
	boom := errors.New("payload cannot finish")
	_, err := f.Checkpoint(dir, 1, []byte("m"), 5, func(w *bufio.Writer) error {
		w.Write(make([]byte, 100<<10)) // past the buffer: some of it reached the file
		return boom
	}, func(err error) error {
		t.Errorf("wedged on a failed payload: %v", err)
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Checkpoint returned %v, want the payload's error", err)
	}
	if s, _ := f.LoadSnapshot(dir); s != nil || !bytes.Equal(f.readLog(t, dir), f.logImage(0, 2)) {
		t.Fatal("a failed payload changed the directory")
	}
	if _, err := os.Stat(filepath.Join(dir, f.SnapName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("the failed snapshot's temp file is left behind: %v", err)
	}
}
