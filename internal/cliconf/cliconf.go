// Package cliconf declares what cmd/palermo-server and cmd/palermo-load
// share of their command lines, once: the store flags (bound straight to
// the palermo.ShardedStoreConfig they describe) and the -config overlay,
// which applies a JSON file to whatever flags a command declares. A knob
// is therefore added or removed in one place — its flag — and the JSON
// key follows from the flag's name.
package cliconf

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"palermo"
)

// StoreFlags registers the store flags on fs and returns the function
// that, once fs is parsed (and overlaid), yields the configuration they
// describe. With -dir the engine defaults to the one the directory's
// manifest records (so reopening a store never needs -engine restated),
// or to the WAL for a fresh directory.
func StoreFlags(fs *flag.FlagSet) func() (palermo.ShardedStoreConfig, error) {
	var c palermo.ShardedStoreConfig
	fs.IntVar(&c.Shards, "shards", 4, "independent ORAM shards")
	fs.Uint64Var(&c.Blocks, "blocks", 1<<18, "store capacity in 64-byte blocks (0 = store default)")
	fs.Uint64Var(&c.Seed, "seed", 1, "base seed (store shards, and palermo-load's client streams, derive from it)")
	fs.IntVar(&c.QueueDepth, "queue", 0, "per-shard queue depth (0 = default)")
	fs.StringVar(&c.Dir, "dir", "", "durable store directory (selects a durable engine; see -engine)")
	fs.StringVar(&c.Engine, "engine", "", `storage engine with -dir: "wal" (default) or "blockfile" (paged slot file); reopen auto-detects from the manifest`)
	fs.IntVar(&c.GroupCommit, "group-commit", 0, "durable-log appends per fsync batch (0 = default)")
	fs.IntVar(&c.CheckpointEvery, "checkpoint-every", 0, "writes between WAL compaction checkpoints (0 = default, <0 disables)")
	fs.DurationVar(&c.AdmissionDeadline, "admission", 0, "overload-shedding admission deadline: queued requests older than this are dropped with a retry status (0 = never shed)")
	return func() (palermo.ShardedStoreConfig, error) {
		cfg := c
		switch {
		case cfg.Dir != "":
			if cfg.Engine == "" {
				cfg.Engine = palermo.DetectEngine(cfg.Dir)
			}
		case cfg.Engine != "" && cfg.Engine != palermo.BackendMemory:
			return cfg, fmt.Errorf("-engine %s requires -dir", cfg.Engine)
		}
		return cfg, nil
	}
}

// Overlay applies the JSON object in the file at path to fs, after
// fs.Parse: each key sets the flag of the same name with '_' for '-'
// (group_commit → -group-commit) unless that flag was given on the
// command line, which wins. A zero value (0, false, "") leaves the flag's
// default alone, the flags' own zero-means-default convention. Durations
// are Go strings ("2m") or integer nanoseconds. Unknown keys and values of
// the wrong JSON type are errors, so a typo fails loudly instead of
// silently defaulting, and so is anything after the object. Flags the
// file sets count as set for fs.Visit.
func Overlay(fs *flag.FlagSet, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var keys map[string]any
	if err := dec.Decode(&keys); err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("config %s: trailing data after the JSON object", path)
	}
	onCommandLine := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { onCommandLine[f.Name] = true })
	for key, val := range keys {
		name := strings.ReplaceAll(key, "_", "-")
		f := fs.Lookup(name)
		if f == nil || name == "config" {
			return fmt.Errorf("config %s: unknown key %q", path, key)
		}
		text, err := flagText(f, val)
		if err != nil {
			return fmt.Errorf("config %s: %q: %w", path, key, err)
		}
		if text == "" || onCommandLine[name] {
			continue
		}
		if err := fs.Set(name, text); err != nil {
			return fmt.Errorf("config %s: %q: %w", path, key, err)
		}
	}
	return nil
}

// flagText renders a decoded JSON value as the text f parses, "" for a
// zero value. The JSON type must match the flag's.
func flagText(f *flag.Flag, val any) (string, error) {
	cur := f.Value.(flag.Getter).Get()
	_, isDuration := cur.(time.Duration)
	switch v := val.(type) {
	case bool:
		if _, ok := cur.(bool); ok {
			if v {
				return "true", nil
			}
			return "", nil
		}
	case string:
		if _, ok := cur.(string); ok {
			return v, nil
		}
		if isDuration {
			d, err := time.ParseDuration(v)
			if err != nil || d == 0 {
				return "", err
			}
			return d.String(), nil
		}
	case json.Number:
		if isDuration {
			ns, err := v.Int64()
			if err != nil || ns == 0 {
				return "", err
			}
			return time.Duration(ns).String(), nil
		}
		switch cur.(type) {
		case int, uint64:
			if v == "0" {
				return "", nil
			}
			return v.String(), nil
		}
	}
	want := fmt.Sprintf("%T", cur)
	if isDuration {
		want = `duration string like "2m" or integer nanoseconds`
	}
	return "", fmt.Errorf("want a JSON %s", want)
}
