package cliconf

import (
	"flag"
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
	path := writeConfig(t, `{"addr": "127.0.0.1:7071", "shards": 8, "idle": "5m", "treetop": 4}`)
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
	if c.TreeTopLevels != 4 {
		t.Fatalf("file value for a flag the command line left alone was dropped: treetop %d", c.TreeTopLevels)
	}
}

func TestStoreFlagsCrossChecks(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-engine", "blockfile"}, "requires -dir"},
		{[]string{"-slot-cache", "4096"}, "requires -dir"},
		{[]string{"-engine", "memory"}, ""},
		{[]string{"-dir", t.TempDir(), "-engine", "blockfile", "-slot-cache", "4096", "-checkpoint-every", "-1"}, ""},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		store := StoreFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, err := store()
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}
