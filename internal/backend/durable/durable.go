// Package durable is the one copy of the durability discipline the WAL and
// blockfile engines share (DESIGN.md §7). An engine describes its files in
// a Format and keeps only its payload strategy — what a record stands for
// and where the sealed blocks live; everything that decides whether a
// directory can be trusted after a crash is here:
//
//	LOCK      exclusive flock, held for the backend's lifetime
//	log       magic | seq | crc32(header), then fixed-size records:
//	          local(8) | epoch(8) | payload | crc32(record)
//	snapshot  magic | seq | metaEpoch | metaLen | meta | payload |
//	          crc32(all preceding)
//
// Files are only ever replaced whole (temp file, fsync, rename, fsync of
// the directory), so each is the old version or the new one, never a torn
// mixture. The log's seq ties it to the snapshot it follows: Checkpoint
// renames the snapshot first and resets the log second, so a crash between
// the two leaves an older-seq log whose records the snapshot already folds
// in, and Recover discards it instead of double-applying. No other
// combination can come from a crash — a missing log under a snapshot, or a
// log ahead of its snapshot, means files were removed or rolled back, and
// Recover refuses rather than reinitialise over acknowledged writes.
//
// Within a log, replay stops at the first short or CRC-failing record: the
// torn group-commit tail a crash can leave, which is cut off. A failing
// record *followed by intact ones* is storage corruption instead (fixed
// record size keeps alignment), and is refused with the file untouched. A
// crash therefore loses exactly the writes not yet fsynced, nothing else.
//
// Group commit is here too: an engine frames its records into a Batch,
// whose one helper goroutine runs the engine's commit of each closed
// batch, one in flight at most (batch.go).
//
// A backend that can no longer trust its directory wedges: every later
// operation fails fast with the first cause (ClosedErr). The rule the core
// imposes is that any failure at or after a checkpoint's snapshot rename
// wedges — appending to the old-seq log from there on would acknowledge
// writes the next Recover throws away as already folded in.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Format is what distinguishes one engine's files from another's.
type Format struct {
	Engine     string // prefix of every error
	LogName    string
	LogMagic   string // 8 bytes
	SnapName   string
	SnapMagic  string // 8 bytes
	RecordSize int    // local(8) + epoch(8) + payload + crc32(4)
}

func (f *Format) wrap(err error) error { return fmt.Errorf("%s: %w", f.Engine, err) }

const (
	// DefaultGroupCommit is how many appended records share one fsync.
	DefaultGroupCommit = 32
	// MaxGroupCommit caps the fsync batch (and with it the write buffer,
	// the worst-case crash-loss window, and one atomic record group).
	MaxGroupCommit = 1 << 16
)

// GroupCommit resolves an engine's GroupCommit option: unset means the
// default, and nothing exceeds the cap.
func GroupCommit(n int) int {
	if n <= 0 {
		return DefaultGroupCommit
	}
	return min(n, MaxGroupCommit)
}

// OpenDir creates dir if needed and takes an exclusive lock on dir/LOCK, so
// a second process (or a second Open in this one) fails loudly instead of
// truncating a live log or scribbling over a live slot file. Closing the
// returned file releases the lock.
func (f *Format) OpenDir(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, f.wrap(err)
	}
	l, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, f.wrap(err)
	}
	if err := flock(l); err != nil {
		l.Close()
		return nil, fmt.Errorf("%s: %s is in use by another store instance", f.Engine, dir)
	}
	return l, nil
}

// ClosedErr is the failure every operation on a closed backend returns:
// the wedging root cause when there is one, a plain closed error else.
func (f *Format) ClosedErr(failErr error) error {
	if failErr != nil {
		return failErr
	}
	return fmt.Errorf("%s: backend is closed", f.Engine)
}

// Fsync is an engine's commit-path fsync telemetry (atomics: FsyncStats
// reads them from any goroutine while the owner or the Batch's helper is
// mid-sync).
type Fsync struct {
	n, nanos atomic.Uint64
}

// fsync is TimedSync's sync; a variable so a test can fail every commit
// of either engine.
var fsync = (*os.File).Sync

// TimedSync fsyncs f and charges the wait to s.
func TimedSync(s *Fsync, f *os.File) error {
	t0 := time.Now()
	err := fsync(f)
	s.n.Add(1)
	s.nanos.Add(uint64(time.Since(t0)))
	return err
}

// FsyncStats reports how many commit-path fsyncs the backend has issued
// and the cumulative time spent waiting on them — the durability lag an
// operability surface wants to watch. Checkpoint and recovery fsyncs are
// rare one-offs and are not counted. Safe to call from any goroutine at
// any time.
func (s *Fsync) FsyncStats() (count uint64, total time.Duration) {
	return s.n.Load(), time.Duration(s.nanos.Load())
}

// syncDir makes a rename in dir durable. A variable so tests can fail the
// one step of a replace that comes after its rename.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// finish writes f's contents and makes them durable under f's current
// name, removing the file if that fails.
func finish(f *os.File, write func(*os.File) error) error {
	err := write(f)
	if err == nil {
		err = f.Sync() // contents durable before any name points at them
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// bytesOf is the write step for contents already in memory.
func bytesOf(data []byte) func(*os.File) error {
	return func(f *os.File) error {
		_, err := f.Write(data)
		return err
	}
}

// replace installs what write produces as path, atomically and durably.
// renamed reports that the rename was reached: from then on a crash may
// leave the new file in place, whatever err says.
func replace(tmp *os.File, path string, write func(*os.File) error) (renamed bool, err error) {
	if err := finish(tmp, write); err != nil {
		return false, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return true, err
	}
	return true, syncDir(filepath.Dir(path))
}

// replaceNamed is replace through the fixed temporary name path+".tmp",
// which a directory's lock holder may reuse: a crash leaves at most one.
func replaceNamed(path string, write func(*os.File) error) (renamed bool, err error) {
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		return false, err
	}
	return replace(tmp, path, write)
}

// ReplaceFile atomically and durably replaces path's contents with data:
// a reader — or a recovery after power loss — sees the old bytes or the
// new ones, and once ReplaceFile returns, the new ones.
func ReplaceFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, err = replace(tmp, path, bytesOf(data))
	return err
}
