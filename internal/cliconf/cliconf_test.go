package cliconf

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"palermo"
)

// serverFlags declares the store flags plus a few of palermo-server's own,
// the way its main does.
type serverFlags struct {
	fs       *flag.FlagSet
	store    func() (palermo.ShardedStoreConfig, error)
	addr     *string
	idle     *time.Duration
	manifest *string
	pprof    *bool
}

func newServerFlags() *serverFlags {
	fs := flag.NewFlagSet("palermo-server", flag.ContinueOnError)
	return &serverFlags{
		fs:       fs,
		store:    StoreFlags(fs),
		addr:     fs.String("addr", "127.0.0.1:7070", ""),
		idle:     fs.Duration("idle", 2*time.Minute, ""),
		manifest: fs.String("manifest", "", ""),
		pprof:    fs.Bool("pprof", false, ""),
	}
}

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "server.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOverlayLoad(t *testing.T) {
	path := writeConfig(t, `{
  "addr": "127.0.0.1:7071",
  "shards": 4,
  "blocks": 4096,
  "dir": "/tmp/x",
  "group_commit": 3,
  "pprof": true,
  "queue": 0,
  "idle": "90s",
  "admission": 5000000,
  "manifest": "manifest.json"
}`)
	sf := newServerFlags()
	if err := sf.fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := Overlay(sf.fs, path); err != nil {
		t.Fatal(err)
	}
	c, err := sf.store()
	if err != nil {
		t.Fatal(err)
	}
	if *sf.addr != "127.0.0.1:7071" || c.Shards != 4 || c.Blocks != 4096 || *sf.manifest != "manifest.json" ||
		c.Dir != "/tmp/x" || c.GroupCommit != 3 || !*sf.pprof {
		t.Fatalf("config applied wrong: addr %s manifest %s store %+v", *sf.addr, *sf.manifest, c)
	}
	if *sf.idle != 90*time.Second || c.AdmissionDeadline != 5*time.Millisecond {
		t.Fatalf("durations: idle %v (string form), admission %v (integer nanoseconds)", *sf.idle, c.AdmissionDeadline)
	}
	if c.Engine != palermo.BackendWAL {
		t.Fatalf("a fresh -dir defaults to the WAL engine, got %q", c.Engine)
	}
	// Keys the file set count as set (cluster mode validates an explicit
	// geometry against the manifest); a zero value is "not given".
	set := map[string]bool{}
	sf.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["blocks"] || !set["shards"] || set["queue"] || set["seed"] {
		t.Fatalf("set flags after overlay: %v", set)
	}
}

func TestOverlayStrict(t *testing.T) {
	for name, body := range map[string]string{
		"unknown key":         `{"addrs": "typo"}`,
		"config key":          `{"config": "other.json"}`,
		"string for a number": `{"shards": "4"}`,
		"number for a bool":   `{"pprof": 1}`,
		"a deleted knob":      `{"prefetch": true}`,
		"another":             `{"pipeline": 2}`,
		"bad duration":        `{"idle": "soon"}`,
		"fractional count":    `{"shards": 1.5}`,
		"not an object":       `[1, 2]`,
		"the slot cache knob": `{"slot_cache": 4096}`,
		"trailing bytes":      `{"shards": 4} {"garbage": true} trailing`,
	} {
		sf := newServerFlags()
		sf.fs.String("config", "", "")
		if err := sf.fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if err := Overlay(sf.fs, writeConfig(t, body)); err == nil {
			t.Errorf("%s: %s accepted", name, body)
		}
	}
}

func TestOverlayCommandLineBeatsFile(t *testing.T) {
	path := writeConfig(t, `{"addr": "127.0.0.1:7071", "shards": 8, "idle": "5m", "group_commit": 4}`)
	sf := newServerFlags()
	if err := sf.fs.Parse([]string{"-addr", ":9000", "-shards", "2", "-idle", "0"}); err != nil {
		t.Fatal(err)
	}
	if err := Overlay(sf.fs, path); err != nil {
		t.Fatal(err)
	}
	c, err := sf.store()
	if err != nil {
		t.Fatal(err)
	}
	// Even a command-line zero wins: -idle 0 means "never", not "unset".
	if *sf.addr != ":9000" || c.Shards != 2 || *sf.idle != 0 {
		t.Fatalf("file overrode the command line: addr %s shards %d idle %v", *sf.addr, c.Shards, *sf.idle)
	}
	if c.GroupCommit != 4 {
		t.Fatalf("file value for a flag the command line left alone was dropped: group_commit %d", c.GroupCommit)
	}
}

func TestStoreFlagsCrossChecks(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-engine", "blockfile"}, "requires -dir"},
		{[]string{"-slot-cache", "4096"}, "flag provided but not defined"},
		{[]string{"-engine", "memory"}, ""},
		{[]string{"-dir", t.TempDir(), "-engine", "blockfile", "-checkpoint-every", "-1"}, ""},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		store := StoreFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			if tc.want == "" || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: parse err = %v, want %q", tc.args, err, tc.want)
			}
			continue
		}
		_, err := store()
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// FuzzOverlay throws arbitrary bytes at Overlay as a -config file over the
// store flags, after a command line that sets three of them: no input
// panics it, and an accepted file names only declared flags (never
// -config), sets no flag it does not name, and overrides no command-line
// flag.
func FuzzOverlay(f *testing.F) {
	f.Add([]byte(`{"shards": 8, "blocks": 4096, "group_commit": 3, "admission": "2ms"}`))
	f.Add([]byte(`{"engine": "wal", "dir": "d", "queue": 0, "seed": 7, "checkpoint_every": -1}`))
	f.Add([]byte(`{"config": "other.json"}`))
	f.Add([]byte(`{"shards": 4} {"garbage": true}`))
	f.Add([]byte(`{"admission": 5000000, "blocks": 1.5}`))
	args := []string{"-shards", "2", "-engine", "blockfile", "-admission", "1s"}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		StoreFlags(fs)
		fs.String("config", "", "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		before := map[string]string{}
		fs.Visit(func(fl *flag.Flag) { before[fl.Name] = fl.Value.String() })
		path := filepath.Join(t.TempDir(), "c.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Overlay(fs, path); err != nil {
			return
		}
		var keys map[string]any
		if err := json.Unmarshal(data, &keys); err != nil {
			t.Fatalf("Overlay accepted %q, which is no JSON object: %v", data, err)
		}
		named := map[string]bool{}
		for key := range keys {
			name := strings.ReplaceAll(key, "_", "-")
			if fs.Lookup(name) == nil || name == "config" {
				t.Fatalf("Overlay accepted key %q, which names no store flag", key)
			}
			named[name] = true
		}
		fs.Visit(func(fl *flag.Flag) {
			if want, ok := before[fl.Name]; ok && fl.Value.String() != want {
				t.Fatalf("file overrode -%s on the command line: %s, want %s", fl.Name, fl.Value, want)
			}
			if _, ok := before[fl.Name]; !ok && !named[fl.Name] {
				t.Fatalf("Overlay set -%s, which the file does not name", fl.Name)
			}
		})
	})
}
