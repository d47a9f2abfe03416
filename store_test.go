package palermo

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"palermo/internal/rng"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(StoreConfig{Blocks: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func block(fill byte) []byte {
	return bytes.Repeat([]byte{fill}, BlockSize)
}

func TestStoreRoundTrip(t *testing.T) {
	st := testStore(t)
	if err := st.Write(7, block(0xAA)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(0xAA)) {
		t.Fatal("round trip failed")
	}
}

func TestStoreOverwrite(t *testing.T) {
	st := testStore(t)
	st.Write(3, block(1))
	st.Write(3, block(2))
	got, err := st.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(2)) {
		t.Fatal("overwrite not visible")
	}
}

func TestStoreUnwrittenReadsZero(t *testing.T) {
	st := testStore(t)
	got, err := st.Read(99)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("unwritten block must read as zeros")
	}
}

func TestStoreErrors(t *testing.T) {
	st := testStore(t)
	if err := st.Write(1<<14, block(0)); err == nil {
		t.Fatal("out-of-range write must error")
	}
	if _, err := st.Read(1 << 14); err == nil {
		t.Fatal("out-of-range read must error")
	}
	if err := st.Write(0, []byte("short")); err == nil {
		t.Fatal("short block must error")
	}
	if _, err := NewStore(StoreConfig{Key: []byte("bad")}); err == nil {
		t.Fatal("bad key must error")
	}
}

func TestStoreManyBlocks(t *testing.T) {
	st := testStore(t)
	r := rng.New(5)
	ref := make(map[uint64]byte)
	for i := 0; i < 1000; i++ {
		id := r.Uint64n(1 << 14)
		fill := byte(r.Uint64())
		if err := st.Write(id, block(fill)); err != nil {
			t.Fatal(err)
		}
		ref[id] = fill
	}
	for id, fill := range ref {
		got, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != fill || got[BlockSize-1] != fill {
			t.Fatalf("block %d corrupted", id)
		}
	}
}

func TestStoreTrafficReport(t *testing.T) {
	st := testStore(t)
	st.Write(1, block(1))
	st.Read(1)
	// Writes to DRAM only happen on the periodic eviction (every A=20
	// accesses), so run past one eviction boundary.
	for i := uint64(2); i < 42; i++ {
		st.Read(i)
	}
	rep := st.Traffic()
	if rep.Reads != 41 || rep.Writes != 1 {
		t.Fatalf("ops: %+v", rep)
	}
	if rep.DRAMReads == 0 || rep.DRAMWrites == 0 {
		t.Fatal("traffic not tracked")
	}
	// ORAM amplification: one op costs on the order of 100 lines.
	if rep.AmplificationFactor < 20 || rep.AmplificationFactor > 2000 {
		t.Fatalf("amplification = %.0f, implausible", rep.AmplificationFactor)
	}
	if rep.StashPeak <= 0 || rep.StashPeak > 256 {
		t.Fatalf("stash peak %d", rep.StashPeak)
	}
}

// TestStoreConfigValidation table-drives every StoreConfig field: bad
// configurations fail eagerly in NewStore with a palermo:-prefixed error
// (never as a deep failure inside the engine layer), and each field's
// legal edge values are accepted.
func TestStoreConfigValidation(t *testing.T) {
	rejected := []struct {
		field string
		cfg   StoreConfig
	}{
		{"Blocks overflow", StoreConfig{Blocks: MaxBlocks * 4}},
		{"Blocks just past cap", StoreConfig{Blocks: MaxBlocks + 1}},
		{"Key short", StoreConfig{Blocks: 1 << 10, Key: []byte("bad")}},
		{"Key off-size", StoreConfig{Blocks: 1 << 10, Key: make([]byte, 17)}},
		{"Key oversize", StoreConfig{Blocks: 1 << 10, Key: make([]byte, 64)}},
		{"Engine unknown", StoreConfig{Blocks: 1 << 10, Engine: "etcd"}},
		{"Engine memory with Dir", StoreConfig{Blocks: 1 << 10, Engine: BackendMemory, Dir: t.TempDir()}},
		{"Engine wal without Dir", StoreConfig{Blocks: 1 << 10, Engine: BackendWAL}},
	}
	for _, tc := range rejected {
		_, err := NewStore(tc.cfg)
		if err == nil {
			t.Fatalf("%s: config %+v must be rejected", tc.field, tc.cfg)
		}
		if !strings.HasPrefix(err.Error(), "palermo:") {
			t.Fatalf("%s: error %q lacks palermo: prefix", tc.field, err)
		}
	}
	accepted := []struct {
		field string
		cfg   StoreConfig
	}{
		{"Key AES-128", StoreConfig{Blocks: 1 << 10, Key: make([]byte, 16)}},
		{"Key AES-192", StoreConfig{Blocks: 1 << 10, Key: make([]byte, 24)}},
		{"Key AES-256", StoreConfig{Blocks: 1 << 10, Key: make([]byte, 32)}},
		{"Blocks zero defaults", StoreConfig{}},
		{"Seed zero defaults", StoreConfig{Blocks: 1 << 10, Seed: 0}},
		{"CheckpointEvery negative disables", StoreConfig{Blocks: 1 << 10, Engine: BackendWAL, Dir: t.TempDir(), CheckpointEvery: -1}},
		{"GroupCommit negative defaults", StoreConfig{Blocks: 1 << 10, Engine: BackendWAL, Dir: t.TempDir(), GroupCommit: -1}},
		{"GroupCommit synchronous", StoreConfig{Blocks: 1 << 10, Engine: BackendWAL, Dir: t.TempDir(), GroupCommit: 1}},
	}
	for _, tc := range accepted {
		st, err := NewStore(tc.cfg)
		if err != nil {
			t.Fatalf("%s: config %+v rejected: %v", tc.field, tc.cfg, err)
		}
		st.Close()
	}
}

func TestStoreDefaults(t *testing.T) {
	st, err := NewStore(StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks() != 1<<20 {
		t.Fatalf("default capacity = %d", st.Blocks())
	}
}

// ExampleStore demonstrates the adoption-facing oblivious store API.
func ExampleStore() {
	st, err := NewStore(StoreConfig{Blocks: 1 << 12})
	if err != nil {
		panic(err)
	}
	secret := make([]byte, BlockSize)
	copy(secret, "attack at dawn")
	if err := st.Write(7, secret); err != nil {
		panic(err)
	}
	got, err := st.Read(7)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(got[:14]))
	// Output: attack at dawn
}

// ExampleRun demonstrates the simulation entry point.
func ExampleRun() {
	res, err := Run(ProtoPalermo, "rand", Options{Lines: 1 << 20, Requests: 100})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Protocol, res.Workload, res.Requests)
	// Output: Palermo rand 100
}
