package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Manifest pins a durable store directory to the configuration that
// created it. Reopening with a different shard count would silently route
// ids to the wrong per-shard logs, so the store verifies the manifest on
// every open. The key is secret and deliberately absent: a wrong key
// surfaces as a checkpoint-decode failure instead.
type Manifest struct {
	Version int    `json:"version"`
	Blocks  uint64 `json:"blocks"`
	Shards  int    `json:"shards"`
	// Engine names the storage engine that owns the per-shard
	// sub-directories ("wal" or "blockfile"). Empty means "wal":
	// directories written before the field existed keep reopening
	// unchanged. Mixing engines over one directory would mis-read the
	// per-shard files, so a mismatch is refused like any other
	// geometry change.
	Engine string `json:"engine,omitempty"`
}

// ManifestVersion is the current on-disk layout version.
const ManifestVersion = 1

const manifestName = "manifest.json"

// EnsureManifest writes the manifest on first open of dir and verifies it
// against m on every later open. Creation is atomic AND exclusive
// (durable temp file + hard link, which fails on an existing name), so
// two concurrent first opens with different geometries cannot overwrite
// each other — the loser falls through to verification and errors out.
func EnsureManifest(dir string, m Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	path := filepath.Join(dir, manifestName)
	if _, err := os.Lstat(path); os.IsNotExist(err) {
		buf, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		f, err := os.CreateTemp(dir, manifestName+"-*.tmp")
		if err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		if err := finish(f, bytesOf(append(buf, '\n'))); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		err = os.Link(f.Name(), path)
		os.Remove(f.Name())
		if err == nil {
			err = syncDir(dir)
		}
		// Losing the creation race is not a failure: the winner's manifest
		// is verified below like any existing one.
		if err != nil && !os.IsExist(err) {
			return fmt.Errorf("durable: %w", err)
		}
	}
	got, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	if got.Version != m.Version {
		return fmt.Errorf("durable: %s was written by layout version %d, this build reads %d", dir, got.Version, m.Version)
	}
	if got.Blocks != m.Blocks || got.Shards != m.Shards {
		return fmt.Errorf("durable: %s holds a %d-block/%d-shard store, config asks for %d/%d",
			dir, got.Blocks, got.Shards, m.Blocks, m.Shards)
	}
	if got.Engine != normalizeEngine(m.Engine) {
		return fmt.Errorf("durable: %s holds a %q-engine store, config asks for %q",
			dir, got.Engine, normalizeEngine(m.Engine))
	}
	return nil
}

// normalizeEngine maps the pre-engine-field manifests onto "wal".
func normalizeEngine(e string) string {
	if e == "" {
		return "wal"
	}
	return e
}

// ReadManifest loads dir's manifest, so tools (palermo-load -verify,
// server reopen) can auto-detect the engine and geometry of an existing
// store instead of requiring the operator to restate them.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, fmt.Errorf("durable: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("durable: corrupt %s: %w", filepath.Join(dir, manifestName), err)
	}
	m.Engine = normalizeEngine(m.Engine)
	return m, nil
}
