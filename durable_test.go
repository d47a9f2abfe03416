package palermo

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"

	"palermo/internal/rng"
)

func fillBlock(v uint64) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = byte(v + uint64(i)*3)
	}
	return b
}

// TestStoreWALCloseReopen: a clean Close checkpoints everything, and a
// reopen restores the store bit-exactly — payloads and traffic counters.
func TestStoreWALCloseReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: dir, Seed: 7}

	st, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]byte)
	r := rng.New(42)
	for i := 0; i < 300; i++ {
		id := r.Uint64n(1 << 10)
		if i%3 == 0 {
			if _, err := st.Read(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		data := fillBlock(uint64(i))
		if err := st.Write(id, data); err != nil {
			t.Fatal(err)
		}
		want[id] = data
	}
	before := st.Traffic()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close = %v, want ErrClosed", err)
	}

	re, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if after := re.Traffic(); after != before {
		t.Fatalf("traffic counters not restored:\n before %+v\n after  %+v", before, after)
	}
	for id, data := range want {
		got, err := re.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %d diverged after reopen", id)
		}
	}
}

// TestShardedStoreWALRecovery is the acceptance scenario: a mixed
// workload through a WAL-backed ShardedStore, Close, reopen from the same
// dir — every written block reads back byte-identical with traffic
// counters restored.
func TestShardedStoreWALRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedStoreConfig{
		Blocks: 1 << 11, Shards: 4, Seed: 3,
		Engine: BackendWAL, Dir: dir,
		CheckpointEvery: 64, // force periodic compactions mid-workload too
	}
	st, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]byte)
	r := rng.New(99)
	for i := 0; i < 150; i++ {
		id := r.Uint64n(1 << 11)
		data := fillBlock(uint64(i) * 17)
		if err := st.Write(id, data); err != nil {
			t.Fatal(err)
		}
		want[id] = data
	}
	// Batches with duplicate ids (dedup fan-out) and a write batch.
	ids := []uint64{1, 5, 1, 9, 5}
	if _, err := st.ReadBatch(ids); err != nil {
		t.Fatal(err)
	}
	wids := []uint64{2, 1002, 2002}
	wdata := [][]byte{fillBlock(7001), fillBlock(7002), fillBlock(7003)}
	if err := st.WriteBatch(wids, wdata); err != nil {
		t.Fatal(err)
	}
	for i, id := range wids {
		want[id] = wdata[i]
	}
	before := st.Traffic()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if after := re.Traffic(); after != before {
		t.Fatalf("traffic counters not restored:\n before %+v\n after  %+v", before, after)
	}
	for id, data := range want {
		got, err := re.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %d diverged after reopen", id)
		}
	}
	// Unwritten blocks still read as zeros through the recovered engine.
	zero, err := re.Read(2047)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, make([]byte, BlockSize)) {
		t.Fatal("unwritten block must read as zeros after recovery")
	}
}

// crashEnv tells a re-exec'd test binary to play the dying process of a
// crash test: write through a durable store, then exit WITHOUT Close. The
// parent reopens the directory afterwards — a genuine cross-process kill,
// which also releases the directory flock the way a real crash does.
// crashEngineEnv picks the storage engine (empty means WAL).
const crashEnv = "PALERMO_TEST_CRASH_DIR"
const crashEngineEnv = "PALERMO_TEST_CRASH_ENGINE"

// crashChild runs the dying life if this process is the re-exec'd child;
// returns false in the parent.
func crashChild(t *testing.T, checkpointEvery int, write func(st *ShardedStore, i uint64) error) bool {
	dir := os.Getenv(crashEnv)
	if dir == "" {
		return false
	}
	engine := os.Getenv(crashEngineEnv)
	if engine == "" {
		engine = BackendWAL
	}
	st, err := NewShardedStore(ShardedStoreConfig{
		Blocks: 1 << 10, Shards: 1, Engine: engine, Dir: dir,
		GroupCommit: 1, CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if err := write(st, i); err != nil {
			t.Fatal(err)
		}
	}
	os.Exit(0) // die without Close: no final checkpoint, no flush
	return true
}

// rerunAsCrashChild re-execs the test binary to run the named test's
// child branch against dir under the given engine, and waits for it to
// die.
func rerunAsCrashChild(t *testing.T, test, dir, engine string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^"+test+"$")
	cmd.Env = append(os.Environ(), crashEnv+"="+dir, crashEngineEnv+"="+engine)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("crash child failed: %v\n%s", err, out)
	}
}

// TestStoreWALCrashRecovery: killing a store process without Close
// preserves every group-committed write; recovery replays the tail
// through the engine and reads stay epoch-consistent.
func TestStoreWALCrashRecovery(t *testing.T) {
	if crashChild(t, 0, func(st *ShardedStore, i uint64) error {
		return st.Write(i*19%(1<<10), fillBlock(i+500))
	}) {
		return
	}
	dir := t.TempDir()
	rerunAsCrashChild(t, "TestStoreWALCrashRecovery", dir, BackendWAL)

	// Even a dir that only ever crashed (no clean Close) carries its
	// creation checkpoint, so a wrong key is rejected at open instead of
	// decrypting sealed payloads into garbage.
	if _, err := NewShardedStore(ShardedStoreConfig{
		Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: dir,
		GroupCommit: 1, Key: []byte("wrong-key-16byte"),
	}); err == nil {
		t.Fatal("crashed dir reopened under a different key must fail")
	}

	re, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: dir, GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep := re.Traffic(); rep.Writes != 50 {
		t.Fatalf("recovered %d writes, want 50", rep.Writes)
	}
	for i := uint64(0); i < 50; i++ {
		id := i * 19 % (1 << 10)
		got, err := re.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fillBlock(i+500)) {
			t.Fatalf("block %d diverged after crash recovery", id)
		}
	}
}

// TestStoreWALCrashAfterCheckpoint: a kill after periodic checkpoints
// recovers checkpointed state exactly plus the replayed tail (the child
// writes 50 blocks at CheckpointEvery 20: two checkpoints + a tail).
func TestStoreWALCrashAfterCheckpoint(t *testing.T) {
	if crashChild(t, 20, func(st *ShardedStore, i uint64) error {
		return st.Write(i, fillBlock(i))
	}) {
		return
	}
	dir := t.TempDir()
	rerunAsCrashChild(t, "TestStoreWALCrashAfterCheckpoint", dir, BackendWAL)

	re, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: dir, CheckpointEvery: 20, GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := uint64(0); i < 50; i++ {
		got, err := re.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fillBlock(i)) {
			t.Fatalf("block %d diverged (checkpoint+tail recovery)", i)
		}
	}
}

// TestWALDirLocked: a live store's directory cannot be opened by a second
// store instance; after Close it can.
func TestWALDirLocked(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: dir}
	st, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedStore(cfg); err == nil {
		t.Fatal("second open of a live store directory must fail")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatalf("reopen after Close rejected: %v", err)
	}
	re.Close()
}

// TestErrClosedSentinel is the regression test for the ErrClosed
// satellite: every post-Close operation fails with something errors.Is
// recognizes, on the single-block and batch paths, and a second Close
// re-reports the first one's outcome.
func TestErrClosedSentinel(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if err := st.Write(1, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want errors.Is(_, ErrClosed)", err)
	}
	if _, err := st.Read(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close = %v, want errors.Is(_, ErrClosed)", err)
	}
	if _, err := st.ReadBatch([]uint64{1, 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadBatch after Close = %v, want errors.Is(_, ErrClosed)", err)
	}
	if err := st.WriteBatch([]uint64{1}, [][]byte{buf}); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteBatch after Close = %v, want errors.Is(_, ErrClosed)", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
}

// TestWALWrongKeyRejected: reopening a durable store under a different
// AES key must fail at open (the sealed checkpoint does not decode), not
// corrupt reads later.
func TestWALWrongKeyRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: dir}
	st, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(1, fillBlock(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Key = []byte("wrong-key-16byte")
	if _, err := NewShardedStore(bad); err == nil {
		t.Fatal("reopen under a different key must fail")
	}
}

// TestWALConfigValidation covers the backend plumbing's eager rejections.
func TestWALConfigValidation(t *testing.T) {
	if _, err := NewShardedStore(ShardedStoreConfig{Shards: 1, Engine: "tape"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := NewShardedStore(ShardedStoreConfig{Shards: 1, Engine: BackendWAL}); err == nil {
		t.Fatal("wal without Dir accepted")
	}
	if _, err := NewShardedStore(ShardedStoreConfig{Shards: 1, Dir: t.TempDir()}); err == nil {
		t.Fatal("Dir with memory backend silently ignored")
	}

	// Manifest pins geometry: reopening with different shards/blocks fails.
	dir := t.TempDir()
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 2, Engine: BackendWAL, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 4, Engine: BackendWAL, Dir: dir}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if _, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 11, Shards: 2, Engine: BackendWAL, Dir: dir}); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
}

// TestWALReopenContinuesSealing: epochs keep rising across a reopen, so
// overwrites after recovery never reuse an IV and still read back last.
func TestWALReopenContinuesSealing(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: dir}
	for round := uint64(0); round < 3; round++ {
		st, err := NewShardedStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 10; i++ {
			if err := st.Write(i, fillBlock(round*100+i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 10; i++ {
			got, err := st.Read(i)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !bytes.Equal(got, fillBlock(round*100+i)) {
				t.Fatalf("round %d: block %d stale", round, i)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALRecoveredStoreStaysDeterministic: two stores recovered from
// identical directories serve identical traffic for identical request
// sequences (the §5 determinism contract extends across restarts).
func TestWALRecoveredStoreStaysDeterministic(t *testing.T) {
	mk := func() string {
		dir := t.TempDir()
		st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: dir, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 40; i++ {
			if err := st.Write(i*7%(1<<10), fillBlock(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	drive := func(dir string) TrafficReport {
		st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: dir, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for i := uint64(0); i < 60; i++ {
			if i%2 == 0 {
				if _, err := st.Read(i % 40); err != nil {
					t.Fatal(err)
				}
			} else if err := st.Write(i, fillBlock(i)); err != nil {
				t.Fatal(err)
			}
		}
		return st.Traffic()
	}
	a, b := drive(mk()), drive(mk())
	if a != b {
		t.Fatalf("recovered stores diverged:\n a %+v\n b %+v", a, b)
	}
}

// TestStoreBlockfileCloseReopen: the blockfile engine honors the same
// clean-shutdown contract as the WAL — Close checkpoints everything, and
// a reopen restores payloads and traffic counters bit-exactly. The reopen
// also leaves Engine unset on purpose: DetectEngine reads the manifest,
// so tools never have to restate the engine of an existing directory.
func TestStoreBlockfileCloseReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendBlockfile, Dir: dir, Seed: 7}

	st, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]byte)
	r := rng.New(42)
	for i := 0; i < 300; i++ {
		id := r.Uint64n(1 << 10)
		if i%3 == 0 {
			if _, err := st.Read(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		data := fillBlock(uint64(i))
		if err := st.Write(id, data); err != nil {
			t.Fatal(err)
		}
		want[id] = data
	}
	before := st.Traffic()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if got := DetectEngine(dir); got != BackendBlockfile {
		t.Fatalf("DetectEngine = %q, want %q", got, BackendBlockfile)
	}
	recfg := cfg
	recfg.Engine = DetectEngine(dir)
	re, err := NewShardedStore(recfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if after := re.Traffic(); after != before {
		t.Fatalf("traffic counters not restored:\n before %+v\n after  %+v", before, after)
	}
	for id, data := range want {
		got, err := re.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %d diverged after reopen", id)
		}
	}
}

// TestStoreBlockfileCrashRecovery: the §7 crash discipline holds on the
// blockfile engine too — killing the process without Close preserves
// every group-committed write, recovery replays the tail (including
// orphan slots whose log record was lost) through the engine, and a
// crashed dir still rejects a wrong key at open.
func TestStoreBlockfileCrashRecovery(t *testing.T) {
	if crashChild(t, 0, func(st *ShardedStore, i uint64) error {
		return st.Write(i*19%(1<<10), fillBlock(i+500))
	}) {
		return
	}
	dir := t.TempDir()
	rerunAsCrashChild(t, "TestStoreBlockfileCrashRecovery", dir, BackendBlockfile)

	if _, err := NewShardedStore(ShardedStoreConfig{
		Blocks: 1 << 10, Shards: 1, Engine: BackendBlockfile, Dir: dir,
		GroupCommit: 1, Key: []byte("wrong-key-16byte"),
	}); err == nil {
		t.Fatal("crashed dir reopened under a different key must fail")
	}

	re, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendBlockfile, Dir: dir, GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep := re.Traffic(); rep.Writes != 50 {
		t.Fatalf("recovered %d writes, want 50", rep.Writes)
	}
	for i := uint64(0); i < 50; i++ {
		id := i * 19 % (1 << 10)
		got, err := re.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fillBlock(i+500)) {
			t.Fatalf("block %d diverged after crash recovery", id)
		}
	}
}

// TestBlockfileDirLocked: the blockfile engine holds the same directory
// flock as the WAL, so a live store's directory cannot be double-opened.
func TestBlockfileDirLocked(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendBlockfile, Dir: dir}
	st, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedStore(cfg); err == nil {
		t.Fatal("second open of a live store directory must fail")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatalf("reopen after Close rejected: %v", err)
	}
	re.Close()
}

// TestBlockfileReopenContinuesSealing: epochs keep rising across
// blockfile reopens, so overwrites after recovery never reuse an IV and
// still read back last — including after a crash, where the recovered
// epoch reservation forces the sealer past any slot the log lost.
func TestBlockfileReopenContinuesSealing(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendBlockfile, Dir: dir}
	for round := uint64(0); round < 3; round++ {
		st, err := NewShardedStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 10; i++ {
			if err := st.Write(i, fillBlock(round*100+i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 10; i++ {
			got, err := st.Read(i)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !bytes.Equal(got, fillBlock(round*100+i)) {
				t.Fatalf("round %d: block %d stale", round, i)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineMismatchValidation: unknown engine names are refused, and the
// manifest pins a directory's engine so reopening under the other one is
// refused.
func TestEngineMismatchValidation(t *testing.T) {
	if _, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: "tape", Dir: t.TempDir()}); err == nil {
		t.Fatal("unknown engine accepted")
	}

	// The manifest pins the engine: a WAL dir refuses to reopen as
	// blockfile and vice versa (silently mixing formats would corrupt).
	walDir := t.TempDir()
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendBlockfile, Dir: walDir}); err == nil {
		t.Fatal("WAL dir reopened as blockfile")
	}
	if got := DetectEngine(walDir); got != BackendWAL {
		t.Fatalf("DetectEngine(walDir) = %q, want %q", got, BackendWAL)
	}
	bfDir := t.TempDir()
	st, err = NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendBlockfile, Dir: bfDir})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: bfDir}); err == nil {
		t.Fatal("blockfile dir reopened as wal")
	}
}
