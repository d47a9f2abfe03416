package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzNodeState throws arbitrary bytes at LoadNodeState as a node's
// cluster.json, seeded with files Save wrote: no input panics it, and an
// accepted state holds a valid manifest and round-trips — Save then
// LoadNodeState gives it back.
func FuzzNodeState(f *testing.F) {
	for _, ns := range []*NodeState{
		{Addr: "a:1", Manifest: testManifest()},
		{Addr: "b:2", Manifest: testManifest().WithOwner(1, "b:2", 2)},
	} {
		dir := f.TempDir()
		if err := ns.Save(dir); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, nodeStateName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"addr":"a:1"}`))
	f.Add([]byte(`{"addr":"a:1","manifest":{"epoch":1,"blocks":4,"shards":4,"bogus":1}}`))
	f.Add([]byte(`{"addr":"x","manifest":{"epoch":3,"blocks":1,"shards":1,"ranges":[{"from":0,"to":1,"addr":"x"}]}} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, nodeStateName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ns, err := LoadNodeState(dir)
		if err != nil {
			return
		}
		if ns == nil || ns.Manifest == nil {
			t.Fatalf("LoadNodeState accepted %q without a manifest", data)
		}
		if err := ns.Manifest.Validate(); err != nil {
			t.Fatalf("LoadNodeState accepted an invalid manifest: %v", err)
		}
		again := t.TempDir()
		if err := ns.Save(again); err != nil {
			t.Fatal(err)
		}
		ns2, err := LoadNodeState(again)
		if err != nil {
			t.Fatalf("an accepted node state saves to a file LoadNodeState refuses: %v", err)
		}
		if !reflect.DeepEqual(ns, ns2) {
			t.Fatalf("round trip diverged: %+v vs %+v", ns, ns2)
		}
	})
}
