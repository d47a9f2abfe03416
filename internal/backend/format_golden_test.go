// On-disk format golden for the two durable engines: a fixed
// Put/PutMany/Checkpoint sequence with caller-chosen metadata bytes and an
// un-checkpointed tail must leave byte-identical files behind, commit after
// commit. wal.log, meta.log, blocks.dat and meta.snap are compared by
// sha256; the WAL snapshot wrote its blocks in map order when this was
// recorded (ascending since the mirror became a slab; wal's
// TestSnapshotBytesReproducible pins that), so it is decoded here
// (independently of the engine's loader) and compared in canonical,
// id-sorted form. Recorded at the commit before the durable-log core was
// factored out; `go test ./internal/backend -run FormatGolden -update`
// re-records, and is only legitimate when a disk format changes on purpose.
package backend_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/backend/blockfile"
	"palermo/internal/backend/wal"
)

var updateFormatGolden = flag.Bool("update", false, "re-record testdata/format_golden.json")

const formatGoldenPath = "testdata/format_golden.json"

// formatScript drives one engine through the golden sequence: scalar and
// vector puts (a rewrite of local 1, a vector crossing the group-commit
// boundary), a checkpoint whose metadata holds NUL and 0xFF bytes, then a
// tail of puts the checkpoint does not cover, left in the log by Close.
func formatScript(t *testing.T, be backend.VectorBackend) {
	t.Helper()
	epoch := uint64(0)
	sealed := func(local uint64) backend.Sealed {
		epoch++
		return backend.Sealed{Ct: vecCT(local, epoch), Epoch: epoch}
	}
	put := func(locals ...uint64) {
		t.Helper()
		for _, l := range locals {
			if err := be.Put(l, sealed(l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	putMany := func(locals ...uint64) {
		t.Helper()
		ops := make([]backend.PutOp, len(locals))
		for i, l := range locals {
			ops[i] = backend.PutOp{Local: l, Sb: sealed(l)}
		}
		if err := be.PutMany(ops); err != nil {
			t.Fatal(err)
		}
	}
	put(3, 1, 4, 1, 5)
	putMany(9, 10, 11)
	epoch++
	if err := be.Checkpoint([]byte("golden meta \x00\xff blob"), epoch); err != nil {
		t.Fatal(err)
	}
	put(2, 7)
	putMany(7, 8, 20, 1)
	putMany(6) // a one-op vector frames as a plain record
	put(33)
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
}

func fileSHA(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%d:%s", len(data), hex.EncodeToString(sum[:]))
}

// decodeWALSnapshot parses the documented snapshot layout — magic | seq |
// metaEpoch | metaLen | meta | nBlocks | nBlocks × (local, epoch, ct[64]) |
// crc32 — and renders it with the blocks sorted by id.
func decodeWALSnapshot(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 40 {
		t.Fatalf("snapshot is %d bytes", len(data))
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		t.Fatal("snapshot trailer CRC does not cover the body")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "len=%d magic=%q seq=%d metaEpoch=%d", len(data), body[:8],
		binary.LittleEndian.Uint64(body[8:]), binary.LittleEndian.Uint64(body[16:]))
	metaLen := int(binary.LittleEndian.Uint32(body[24:]))
	off := 28
	fmt.Fprintf(&sb, " meta=%x", body[off:off+metaLen])
	off += metaLen
	n := int(binary.LittleEndian.Uint64(body[off:]))
	off += 8
	if len(body)-off != n*80 {
		t.Fatalf("snapshot holds %d block bytes for %d blocks", len(body)-off, n)
	}
	lines := make([]string, n)
	for i := range lines {
		rec := body[off+i*80:]
		lines[i] = fmt.Sprintf("%06d@%d=%x", binary.LittleEndian.Uint64(rec),
			binary.LittleEndian.Uint64(rec[8:]), sha256.Sum256(rec[16:80]))
	}
	sort.Strings(lines)
	fmt.Fprintf(&sb, " blocks=%d\n%s", n, strings.Join(lines, "\n"))
	sum := sha256.Sum256([]byte(sb.String()))
	return fmt.Sprintf("%s sha256=%s", strings.SplitN(sb.String(), "\n", 2)[0], hex.EncodeToString(sum[:]))
}

func TestFormatGolden(t *testing.T) {
	got := map[string]string{}

	walDir := t.TempDir()
	w, err := wal.Open(walDir, wal.Options{GroupCommit: 4})
	if err != nil {
		t.Fatal(err)
	}
	formatScript(t, w)
	got["wal/wal.log"] = fileSHA(t, filepath.Join(walDir, "wal.log"))
	got["wal/snapshot (decoded)"] = decodeWALSnapshot(t, filepath.Join(walDir, "snapshot"))

	bfDir := t.TempDir()
	bf, err := blockfile.Open(bfDir, blockfile.Options{GroupCommit: 4})
	if err != nil {
		t.Fatal(err)
	}
	formatScript(t, bf)
	for _, name := range []string{"meta.log", "blocks.dat", "meta.snap"} {
		got["blockfile/"+name] = fileSHA(t, filepath.Join(bfDir, name))
	}

	if *updateFormatGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(formatGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(formatGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(formatGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden names %d files, the engines wrote %d", len(want), len(got))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s changed on disk:\n got  %s\n want %s", name, got[name], w)
		}
	}

	// The directories the script left must also reopen: the checkpoint's
	// metadata comes back verbatim and the tail holds exactly the eight
	// post-checkpoint writes (plus blockfile's standing reservation).
	for name, open := range map[string]func() (backend.Backend, error){
		"wal":       func() (backend.Backend, error) { return wal.Open(walDir, wal.Options{}) },
		"blockfile": func() (backend.Backend, error) { return blockfile.Open(bfDir, blockfile.Options{}) },
	} {
		be, err := open()
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		meta, metaEpoch, tail := be.Recovered()
		writes := 0
		for _, op := range tail {
			if op.Local != backend.EpochReserveLocal {
				writes++
			}
		}
		if string(meta) != "golden meta \x00\xff blob" || metaEpoch != 9 || writes != 8 || be.Len() != 13 {
			t.Errorf("%s: reopened with meta %q@%d, %d tail writes, %d blocks", name, meta, metaEpoch, writes, be.Len())
		}
		be.Close()
	}
}
