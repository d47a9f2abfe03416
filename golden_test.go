package palermo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"palermo/internal/rng"
)

// Goldens recorded at the commit before the engine's hot-path data
// structures were rebuilt (ISSUE 13, ROADMAP item 4f). They pin what the
// differential suites cannot: those compare two configurations of the same
// build, these compare this build against a recorded past one.
//
//	go test -run Golden -update .   # re-record (only when the protocol or a disk format changes on purpose)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens and durable fixtures from this build")

// TestGoldenFig10CSV pins the simulator side: all eight protocols over the
// ten Table II workloads at a small request count, as the CSV palermo-bench
// -csv writes. Every protocol engine shares otree/posmap/stash, so a drifted
// draw anywhere moves a cell.
func TestGoldenFig10CSV(t *testing.T) {
	res, err := Fig10(Options{Requests: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fig10_golden.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Fig10 CSV drifted from %s:\n got\n%s\n want\n%s", path, buf.Bytes(), want)
	}
}

// TestGoldenAllFigures pins every figure and table the simulator renders:
// testdata/all_golden.txt is what `palermo-bench -all -requests 20 -seed 3`
// prints (the CI bench-smoke job diffs the binary against the same file),
// and testdata/fig<N>_golden.csv is `palermo-bench -fig N -csv` at the same
// settings for every figure with a CSV form but Fig 10, which
// TestGoldenFig10CSV pins at 40 requests.
func TestGoldenAllFigures(t *testing.T) {
	o := Options{Requests: 20, Seed: 3}
	var text bytes.Buffer
	files := map[string][]byte{}
	show := func(name string, r fmt.Stringer, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		fmt.Fprintln(&text, r)
		if c, ok := r.(interface{ CSV(io.Writer) error }); ok && name != "10" {
			var b bytes.Buffer
			if err := c.CSV(&b); err != nil {
				t.Fatal(err)
			}
			files["fig"+name+"_golden.csv"] = b.Bytes()
		}
	}
	// The order and the Println framing are palermo-bench's -all.
	fmt.Fprintln(&text, TableII())
	fmt.Fprintln(&text, TableIII())
	r3, err := Fig3(o)
	show("3", r3, err)
	r4, err := Fig4(o)
	show("4", r4, err)
	r9, err := Fig9(o)
	show("9", r9, err)
	r10, err := Fig10(o)
	show("10", r10, err)
	r11, err := Fig11(o)
	show("11", r11, err)
	r12, err := Fig12(o)
	show("12", r12, err)
	r13, err := Fig13(o)
	show("13", r13, err)
	r14a, err := Fig14a(o)
	show("14a", r14a, err)
	r14b, err := Fig14b(o)
	show("14b", r14b, err)
	show("15", Fig15(8), nil)
	for _, fn := range []func(Options) (AblationResult, error){AblationHoisting, AblationTreeTop, AblationCommitGranularity} {
		r, err := fn(o)
		show("ablations", r, err)
	}
	pg, rg, err := AblationPathMesh(o)
	show("ablations", pg, err)
	show("ablations", rg, nil)
	tr, err := TenantIsolation(o)
	show("tenants", tr, err)
	files["all_golden.txt"] = text.Bytes()

	for name, got := range files {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted:\n got\n%s\n want\n%s", path, got, want)
		}
	}
}

// The durable fixtures: testdata/durable/<engine> is a one-shard store
// directory written and cleanly closed by the recording build. This build
// must reopen it (checkpoint format compatibility, not self-consistency),
// find the recorded counters and payloads, and continue on the recorded
// trajectory.

const (
	fixtureBlocks   = 2048
	fixtureSeed     = 13
	fixtureWriteOps = 900
	fixtureContOps  = 2000
)

type durableGolden struct {
	AtOpen TrafficReport `json:"at_open"` // counters restored from the fixture's checkpoint
	Leaves string        `json:"leaves"`  // SHA-256 of the leaf trace of verification reads + continuation
	AtEnd  TrafficReport `json:"at_end"`  // counters after the continuation
}

func fixtureConfig(engine, dir string) ShardedStoreConfig {
	return ShardedStoreConfig{Blocks: fixtureBlocks, Shards: 1, Seed: fixtureSeed, Engine: engine, Dir: dir}
}

// fixtureOps replays the deterministic op stream: it calls do for each of n
// operations and returns the last value written per block.
func fixtureOps(t *testing.T, r *rng.Rand, n int, last map[uint64]uint64, do func(id uint64, write bool, v uint64)) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := r.Uint64n(fixtureBlocks)
		if r.Uint64n(3) == 0 {
			do(id, false, 0)
			continue
		}
		v := r.Uint64()
		do(id, true, v)
		last[id] = v
	}
}

// applyTo returns the fixtureOps callback that performs each op on st.
func applyTo(t *testing.T, st *ShardedStore) func(id uint64, write bool, v uint64) {
	return func(id uint64, write bool, v uint64) {
		var err error
		if write {
			err = st.Write(id, fillBlock(v))
		} else {
			_, err = st.Read(id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestGoldenDurableFixtures(t *testing.T) {
	goldenPath := filepath.Join("testdata", "durable_golden.json")
	want := map[string]durableGolden{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]durableGolden{}
	for _, engine := range []string{BackendWAL, BackendBlockfile} {
		fixture := filepath.Join("testdata", "durable", engine)
		r := rng.New(0xd15c)
		last := map[uint64]uint64{}
		if *updateGolden {
			if err := os.RemoveAll(fixture); err != nil {
				t.Fatal(err)
			}
			st, err := NewShardedStore(fixtureConfig(engine, fixture))
			if err != nil {
				t.Fatal(err)
			}
			fixtureOps(t, r, fixtureWriteOps, last, applyTo(t, st))
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			// Advance the stream past the ops the fixture already holds.
			fixtureOps(t, r, fixtureWriteOps, last, func(uint64, bool, uint64) {})
		}

		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
			t.Fatal(err)
		}
		st, err := NewShardedStore(fixtureConfig(engine, dir))
		if err != nil {
			t.Fatalf("%s: reopening the recorded fixture: %v", engine, err)
		}
		st.EnableTraces()
		g := durableGolden{AtOpen: st.Traffic()}
		for id := uint64(0); id < fixtureBlocks; id++ {
			data, err := st.Read(id)
			if err != nil {
				t.Fatalf("%s: read %d: %v", engine, id, err)
			}
			exp := make([]byte, BlockSize)
			if v, ok := last[id]; ok {
				exp = fillBlock(v)
			}
			if !bytes.Equal(data, exp) {
				t.Fatalf("%s: block %d does not hold what the fixture's writer last wrote", engine, id)
			}
		}
		fixtureOps(t, r, fixtureContOps, last, applyTo(t, st))
		h := sha256.New()
		var w [8]byte
		for _, leaf := range st.LeafTraces()[0].Leaves {
			binary.LittleEndian.PutUint64(w[:], leaf)
			h.Write(w[:])
		}
		g.Leaves = hex.EncodeToString(h.Sum(nil))
		g.AtEnd = st.Traffic()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		got[engine] = g
		if !*updateGolden && g != want[engine] {
			t.Errorf("%s: continuing from the recorded fixture left the golden trajectory\n got  %+v\n want %+v", engine, g, want[engine])
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGobCheckpointRefused: testdata/durable-gob/wal is the WAL fixture as
// builds before the binary checkpoint format wrote it, its checkpoint a gob
// stream. This build refuses it with the error that names the conversion,
// and leaves every file as it was, so a build that reads gob can still
// convert it.
func TestGobCheckpointRefused(t *testing.T) {
	fixture := filepath.Join("testdata", "durable-gob", "wal")
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	st, err := NewShardedStore(fixtureConfig(BackendWAL, dir))
	if err == nil {
		st.Close()
		t.Fatal("a store whose checkpoint is gob opened")
	}
	for _, want := range []string{"wrong key", "corrupt store", "before the binary format", "Close writes the binary form"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
	if want, got := readTree(t, fixture), readTree(t, dir); !maps.EqualFunc(want, got, bytes.Equal) {
		t.Errorf("the refused open changed the directory: %d files before, %d after", len(want), len(got))
	}
}

// readTree maps every file under dir, by its path relative to dir, to its
// bytes.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
