package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"

	"palermo/benchmark/layers"
)

// host is the fingerprint stored in every result file: what a number was
// measured on, and with which settings.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Filesystem string `json:"filesystem"` // of the directory the stores live in
	DirectIO   bool   `json:"o_direct"`   // whether that filesystem accepts O_DIRECT
	Commit     string `json:"commit"`
}

func fingerprint(outDir string) (host, error) {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		Filesystem: filesystem(outDir), Commit: commit(),
	}
	dir, err := os.MkdirTemp(outDir, "direct-")
	if err != nil {
		return h, err
	}
	defer os.RemoveAll(dir)
	h.DirectIO, err = layers.DirectIO(dir)
	return h, err
}

// commit is the checked-out revision, or "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if dirty, _ := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); len(dirty) > 0 {
		return strings.TrimSpace(string(out)) + "+dirty"
	}
	return strings.TrimSpace(string(out))
}
