package layers

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"palermo/internal/backend"
	"palermo/internal/backend/blockfile"
	"palermo/internal/backend/memory"
	"palermo/internal/backend/wal"
)

// Engine names, as palermo.ShardedStoreConfig.Engine spells them.
const (
	Memory    = "memory"
	WAL       = "wal"
	Blockfile = "blockfile"
)

// pipelineDepth is the default ShardedStoreConfig.PipelineDepth, which the
// store also hands to the WAL as its commit depth.
const pipelineDepth = 2

// OpenBackend opens one shard's backend with the options a default-knob
// store passes: nothing but the WAL's commit depth.
func OpenBackend(engine, dir string) (backend.Backend, error) {
	switch engine {
	case Memory:
		return memory.New(), nil
	case WAL:
		return wal.Open(dir, wal.Options{CommitDepth: pipelineDepth})
	case Blockfile:
		return blockfile.Open(dir, blockfile.Options{})
	}
	return nil, fmt.Errorf("layers: unknown engine %q", engine)
}

// DirectIO reports whether the filesystem under dir accepts O_DIRECT, by
// opening a blockfile backend there.
func DirectIO(dir string) (bool, error) {
	be, err := blockfile.Open(dir, blockfile.Options{})
	if err != nil {
		return false, err
	}
	direct := be.Direct()
	return direct, be.Close()
}

// SnapshotPath is the file shard i's engine replaces on every checkpoint
// in a store rooted at dir; "" for the memory engine. Watching it is how
// the benchmark counts checkpoints of a store it can only see from outside.
func SnapshotPath(engine, dir string, i int) string {
	name := map[string]string{WAL: "snapshot", Blockfile: "meta.snap"}[engine]
	if name == "" {
		return ""
	}
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", i), name)
}

// BackendSpan is one timed call into a backend, in nanoseconds since the
// clock the TimedBackend was given.
type BackendSpan struct {
	Name       string
	Start, End int64
}

// TimedBackend wraps a backend and records a span around every call. The
// shard's owner and its I/O goroutine both call in, so the span list is
// locked; the lock is never contended for longer than an append.
type TimedBackend struct {
	be    backend.Backend
	vbe   backend.VectorBackend
	clock func() int64

	mu    sync.Mutex
	on    bool
	spans []BackendSpan
}

// NewTimedBackend wraps be; clock returns the benchmark's monotonic time.
func NewTimedBackend(be backend.Backend, clock func() int64) *TimedBackend {
	return &TimedBackend{be: be, vbe: backend.Vector(be), clock: clock}
}

// Record turns span recording on or off (off while prefilling).
func (t *TimedBackend) Record(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// Spans returns the recorded spans in the order the calls ended.
func (t *TimedBackend) Spans() []BackendSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

func (t *TimedBackend) span(name string, start int64) {
	end := t.clock()
	t.mu.Lock()
	if t.on {
		t.spans = append(t.spans, BackendSpan{name, start, end})
	}
	t.mu.Unlock()
}

func (t *TimedBackend) Get(local uint64) (backend.Sealed, bool) {
	defer t.span("backend.get", t.clock())
	return t.be.Get(local)
}

func (t *TimedBackend) Put(local uint64, sb backend.Sealed) error {
	defer t.span("backend.put", t.clock())
	return t.be.Put(local, sb)
}

func (t *TimedBackend) GetMany(locals []uint64, out []backend.Sealed, ok []bool) {
	defer t.span("backend.get", t.clock())
	t.vbe.GetMany(locals, out, ok)
}

func (t *TimedBackend) PutMany(ops []backend.PutOp) error {
	defer t.span("backend.put", t.clock())
	return t.vbe.PutMany(ops)
}

func (t *TimedBackend) Checkpoint(meta []byte, metaEpoch uint64) error {
	defer t.span("backend.checkpoint", t.clock())
	return t.be.Checkpoint(meta, metaEpoch)
}

func (t *TimedBackend) Flush() error {
	defer t.span("backend.flush", t.clock())
	return t.be.Flush()
}

func (t *TimedBackend) Len() int      { return t.be.Len() }
func (t *TimedBackend) Durable() bool { return t.be.Durable() }
func (t *TimedBackend) Close() error  { return t.be.Close() }
func (t *TimedBackend) Recovered() ([]byte, uint64, []backend.TailOp) {
	return t.be.Recovered()
}

// FsyncStats forwards the durable engines' fsync telemetry, which the
// store finds by this method's name.
func (t *TimedBackend) FsyncStats() (uint64, time.Duration) {
	if fs, ok := t.be.(interface {
		FsyncStats() (uint64, time.Duration)
	}); ok {
		return fs.FsyncStats()
	}
	return 0, 0
}
