package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testManifest() *Manifest {
	return &Manifest{
		Epoch: 1, Blocks: 1 << 12, Shards: 4,
		Ranges: []Range{
			{From: 0, To: 2, Addr: "a:1"},
			{From: 2, To: 4, Addr: "b:2"},
		},
	}
}

func TestManifestValidate(t *testing.T) {
	if err := testManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	bad := []func(*Manifest){
		func(m *Manifest) { m.Blocks = 0 },
		func(m *Manifest) { m.Shards = 0 },
		func(m *Manifest) { m.Blocks = 2 }, // shards > blocks
		func(m *Manifest) { m.Ranges = nil },
		func(m *Manifest) { m.Ranges[0].Addr = "" },
		func(m *Manifest) { m.Ranges[1].From = 3 },                                // gap
		func(m *Manifest) { m.Ranges[1].From = 1 },                                // overlap
		func(m *Manifest) { m.Ranges[1].To = 3 },                                  // under-cover
		func(m *Manifest) { m.Ranges[1].To = 5 },                                  // over-cover
		func(m *Manifest) { m.Ranges[0].To = 0 },                                  // empty range
		func(m *Manifest) { m.Ranges[0], m.Ranges[1] = m.Ranges[1], m.Ranges[0] }, // out of order
	}
	for i, mutate := range bad {
		m := testManifest()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d: invalid manifest accepted", i)
		}
	}
}

func TestManifestOwnerAndOwned(t *testing.T) {
	m := testManifest()
	wantOwners := []string{"a:1", "a:1", "b:2", "b:2"}
	for s, want := range wantOwners {
		if got := m.Owner(s); got != want {
			t.Errorf("Owner(%d) = %q, want %q", s, got, want)
		}
	}
	if got := m.Owner(4); got != "" {
		t.Errorf("Owner(4) = %q, want empty", got)
	}
	if got := m.Owned("a:1"); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Owned(a:1) = %v", got)
	}
	if got := m.Nodes(); !reflect.DeepEqual(got, []string{"a:1", "b:2"}) {
		t.Errorf("Nodes() = %v", got)
	}
}

func TestManifestWithOwner(t *testing.T) {
	m := testManifest()
	// Move shard 1 to b:2: a's range splits, and shard 1..4 merge under b.
	m2 := m.WithOwner(1, "b:2", 2)
	if err := m2.Validate(); err != nil {
		t.Fatalf("WithOwner produced an invalid manifest: %v", err)
	}
	if m2.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", m2.Epoch)
	}
	want := []Range{{From: 0, To: 1, Addr: "a:1"}, {From: 1, To: 4, Addr: "b:2"}}
	if !reflect.DeepEqual(m2.Ranges, want) {
		t.Fatalf("ranges = %+v, want %+v", m2.Ranges, want)
	}
	// The original is untouched.
	if m.Epoch != 1 || m.Owner(1) != "a:1" {
		t.Fatalf("WithOwner mutated its receiver: %+v", m)
	}
	// Moving a middle shard leaves the owner with two disjoint ranges.
	m3 := m2.WithOwner(2, "a:1", 3)
	if err := m3.Validate(); err != nil {
		t.Fatalf("split ownership invalid: %v", err)
	}
	if got := m3.Owned("a:1"); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Owned(a:1) = %v, want [0 2]", got)
	}
}

func TestManifestEncodeDecodeRoundTrip(t *testing.T) {
	m := testManifest()
	buf, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("round trip diverged: %+v vs %+v", m, m2)
	}
	if _, err := Decode([]byte(`{"epoch":1,"blocks":4,"shards":4,"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// FuzzManifest feeds Decode arbitrary bytes, seeded with manifests Encode
// wrote: no input panics it, and an accepted manifest is valid and
// round-trips — Encode then Decode gives it back, and encodes the same
// bytes again.
func FuzzManifest(f *testing.F) {
	for _, m := range []*Manifest{testManifest(), testManifest().WithOwner(1, "b:2", 2)} {
		buf, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte(`{"epoch":1,"blocks":4,"shards":4,"bogus":1}`))
	f.Add([]byte(`{"epoch":3,"blocks":1,"shards":1,"ranges":[{"from":0,"to":1,"addr":"x"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid manifest: %v", err)
		}
		buf, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Decode(buf)
		if err != nil {
			t.Fatalf("an accepted manifest re-encodes to %q, which Decode refuses: %v", buf, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip diverged: %+v vs %+v", m, m2)
		}
		if buf2, err := m2.Encode(); err != nil || !bytes.Equal(buf, buf2) {
			t.Fatalf("re-encoding diverged: %q vs %q (%v)", buf, buf2, err)
		}
	})
}

func TestManifestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	m := testManifest()
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("save/load diverged")
	}
	// No temp litter.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries after Save, want 1", len(ents))
	}
}

func TestEvenSplit(t *testing.T) {
	m, err := EvenSplit(1<<12, 5, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	want := []Range{{From: 0, To: 3, Addr: "a"}, {From: 3, To: 5, Addr: "b"}}
	if !reflect.DeepEqual(m.Ranges, want) {
		t.Fatalf("ranges = %+v, want %+v", m.Ranges, want)
	}
	if _, err := EvenSplit(1<<12, 1, []string{"a", "b"}); err == nil {
		t.Fatal("more nodes than shards accepted")
	}
}
