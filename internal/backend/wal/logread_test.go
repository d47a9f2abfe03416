package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/backend/durable"
	"palermo/internal/rng"
)

// readModes are the two ways a region reads, each at the first span and
// with a span the log outgrows, so that reads of the log remap it.
var readModes = []struct {
	name   string
	mapped bool
	span   int64 // minLogSpan; 0 keeps the default
}{
	{"mapped", true, 0},
	{"ReadAt", false, 0},
	{"mapped/outgrown_span", true, 4096},
	{"ReadAt/outgrown_span", false, 4096},
}

// inMode runs fn with reads set as mode says.
func inMode(t *testing.T, mapped bool, span int64, fn func(t *testing.T)) {
	t.Helper()
	if !mapped {
		defer durable.ReadWithoutMapping()()
	}
	if span > 0 {
		real := minLogSpan
		minLogSpan = span
		defer func() { minLogSpan = real }()
	}
	fn(t)
}

// checkAll compares Len, every Get and one GetMany over every id below
// capacity, in scrambled order, with m.
func (m model) checkAll(t *testing.T, b *Backend, capacity uint64, when string) {
	t.Helper()
	m.check(t, b, capacity, when)
	ids := make([]uint64, capacity)
	for i := range ids {
		ids[i] = (uint64(i)*37 + 11) % capacity
	}
	out, oks := make([]backend.Sealed, len(ids)), make([]bool, len(ids))
	b.GetMany(ids, out, oks)
	for i, id := range ids {
		want, held := m[id]
		if oks[i] != held || held && (out[i].Epoch != want.Epoch || !bytes.Equal(out[i].Ct, want.Ct)) {
			t.Fatalf("%s: GetMany position %d (id %d) = epoch %d ok=%v, want epoch %d ok=%v", when, i, id, out[i].Epoch, oks[i], want.Epoch, held)
		}
	}
}

// stallSync makes the next commit's fsync wait until release is called,
// which settles it with err; inSync receives once it waits.
func stallSync(t *testing.T) (inSync <-chan struct{}, release func(err error)) {
	t.Helper()
	in, stall := make(chan struct{}, 1), make(chan error)
	real := syncLog
	first := true
	syncLog = func(s *durable.Fsync, f *os.File) error {
		if !first {
			return real(s, f)
		}
		first = false
		in <- struct{}{}
		if err := <-stall; err != nil {
			return err
		}
		return real(s, f)
	}
	t.Cleanup(func() { syncLog = real })
	return in, func(err error) { stall <- err }
}

// TestReadsFromEveryPlace reads blocks whose last record lies in each of
// the places a WAL keeps one: the snapshot after a checkpoint, a log
// tail replayed at Open, the log file this life wrote, the batch the
// helper is committing (its fsync stalled) and the open batch. Some of
// each overwrite a snapshot block. Every read is checked by Get and
// GetMany, mapped and through ReadAt, and with a log that outgrows its
// region's first span.
func TestReadsFromEveryPlace(t *testing.T) {
	for _, mode := range readModes {
		t.Run(mode.name, func(t *testing.T) {
			inMode(t, mode.mapped, mode.span, testReadsFromEveryPlace)
		})
	}
}

func testReadsFromEveryPlace(t *testing.T) {
	const capacity = 1 << 10
	dir := t.TempDir()
	opt := Options{GroupCommit: 4, Capacity: capacity}
	b := mustOpen(t, dir, opt)
	m := model{}
	epoch := uint64(0)
	// put writes ids [from, to) and, past the snapshot's, one of its ids
	// every eighth; in vectors of up to vector ids.
	put := func(from, to uint64, vector int) {
		t.Helper()
		var ids []uint64
		for id := from; id < to; id++ {
			ids = append(ids, id)
			if from >= 128 && id%8 == 0 {
				ids = append(ids, (id+from)%128)
			}
		}
		for len(ids) > 0 {
			n := min(len(ids), 1+len(ids)%vector)
			ops := make([]backend.PutOp, n)
			for j, id := range ids[:n] {
				epoch++
				ops[j] = backend.PutOp{Local: id, Sb: backend.Sealed{Ct: ct(byte(id*3 + epoch)), Epoch: epoch}}
			}
			if err := b.PutMany(ops); err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				m[op.Local] = op.Sb
			}
			ids = ids[n:]
		}
	}

	put(0, 128, 3)
	epoch++
	if err := b.Checkpoint([]byte("meta"), epoch); err != nil {
		t.Fatal(err)
	}
	m.checkAll(t, b, capacity, "from the snapshot")
	put(128, 256, 3)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = mustOpen(t, dir, opt)
	if b.recent.Len() < 128 {
		t.Fatalf("reopened with %d ids in recent, want the replayed tail's", b.recent.Len())
	}
	span := b.logSpan
	m.checkAll(t, b, capacity, "from the replayed tail")
	put(256, 512, 3)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	m.checkAll(t, b, capacity, "from the log file")

	inSync, release := stallSync(t)
	put(513, 517, 1) // four scalar puts, none of id%8 == 0: their records close the batch
	<-inSync
	put(517, 520, 1)
	if open, flight := b.batch.Held(); len(flight) != 4*recordSize || len(open) != 3*recordSize {
		t.Fatalf("the batches hold %d and %d bytes, want the commit in flight's 4 records and the open batch's 3", len(flight), len(open))
	}
	m.checkAll(t, b, capacity, "from the batch in flight and the open batch")
	release(nil)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	m.checkAll(t, b, capacity, "after the flush")
	if grew := b.logSpan > span; grew != (minLogSpan < 1<<20) {
		t.Fatalf("the log's region went from %d to %d bytes with a least span of %d", span, b.logSpan, minLogSpan)
	}
	epoch++
	if err := b.Checkpoint([]byte("meta"), epoch); err != nil {
		t.Fatal(err)
	}
	m.checkAll(t, b, capacity, "after the merge")
	m.checkSnapshot(t, dir, capacity, "after the merge")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = mustOpen(t, dir, opt)
	m.checkAll(t, b, capacity, "after the last reopen")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedLogReadsUnreadable: a log cut short under the region reads
// its lost records as the unreadable epoch — a fault caught, not a crash
// — and the records it kept as they were written.
func TestTruncatedLogReadsUnreadable(t *testing.T) {
	for _, mode := range readModes[:2] {
		t.Run(mode.name, func(t *testing.T) {
			inMode(t, mode.mapped, 0, func(t *testing.T) {
				const blocks = 512 // 43 KiB of records: several pages
				dir := t.TempDir()
				b := mustOpen(t, dir, Options{GroupCommit: 4, Capacity: blocks})
				defer b.Close()
				for id := uint64(0); id < blocks; id++ {
					if err := b.Put(id, backend.Sealed{Ct: ct(byte(id)), Epoch: id + 1}); err != nil {
						t.Fatal(err)
					}
				}
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(filepath.Join(dir, logName), 4096); err != nil {
					t.Fatal(err)
				}
				if sb, ok := b.Get(0); !ok || sb.Epoch != 1 || sb.Ct[0] != 0 {
					t.Fatalf("Get(0), on the page the file kept, = epoch %d ok=%v", sb.Epoch, ok)
				}
				if sb, ok := b.Get(blocks - 1); !ok || sb.Epoch != unreadable {
					t.Fatalf("Get(%d) past the cut = epoch %d ok=%v, want the unreadable epoch", blocks-1, sb.Epoch, ok)
				}
				out, oks := make([]backend.Sealed, 2), make([]bool, 2)
				b.GetMany([]uint64{blocks - 2, 1}, out, oks)
				if !oks[0] || out[0].Epoch != unreadable || !oks[1] || out[1].Epoch != 2 {
					t.Fatalf("GetMany = epochs %d, %d", out[0].Epoch, out[1].Epoch)
				}
			})
		})
	}
}

// TestWriteAfterTornTailReadsFromTheLog: the reservation recovery
// persists in a torn tail's place is a record too, so a block written
// after it is read from its own record, before and after a reopen.
func TestWriteAfterTornTailReadsFromTheLog(t *testing.T) {
	dir := t.TempDir()
	opt := Options{GroupCommit: 1, Capacity: 64}
	b := mustOpen(t, dir, opt)
	m := model{}
	put := func(b *Backend, id, epoch uint64) {
		t.Helper()
		sb := backend.Sealed{Ct: ct(byte(id + 10*epoch)), Epoch: epoch}
		if err := b.Put(id, sb); err != nil {
			t.Fatal(err)
		}
		m[id] = sb
	}
	for id := uint64(0); id < 5; id++ {
		put(b, id, id+1)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-recordSize/2); err != nil { // block 4's record, torn
		t.Fatal(err)
	}
	delete(m, 4)
	b = mustOpen(t, dir, opt)
	put(b, 7, 6)
	put(b, 2, 7)
	m.checkAll(t, b, 64, "after the torn tail")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = mustOpen(t, dir, opt)
	m.checkAll(t, b, 64, "after the reopen")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedOrWedgedReadsUnreadable: a closed or wedged WAL serves no
// block it held — not from the snapshot, the log file, the batch in
// flight or the open batch — but reads each as the unreadable epoch.
func TestClosedOrWedgedReadsUnreadable(t *testing.T) {
	setup := func(t *testing.T) (*Backend, []uint64) {
		b := mustOpen(t, t.TempDir(), Options{GroupCommit: 4, Capacity: 64})
		for id := uint64(0); id < 16; id++ {
			if err := b.Put(id, backend.Sealed{Ct: ct(byte(id)), Epoch: id + 1}); err != nil {
				t.Fatal(err)
			}
			if id == 7 {
				if err := b.Checkpoint(nil, 100); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b, []uint64{0, 7, 8, 15}
	}
	unreadableAll := func(t *testing.T, b *Backend, ids []uint64, held int) {
		t.Helper()
		for _, id := range ids {
			if sb, ok := b.Get(id); !ok || sb.Epoch != unreadable {
				t.Errorf("Get(%d) = epoch %d ok=%v, want the unreadable epoch", id, sb.Epoch, ok)
			}
		}
		out, oks := make([]backend.Sealed, len(ids)), make([]bool, len(ids))
		b.GetMany(ids, out, oks)
		for i, id := range ids {
			if !oks[i] || out[i].Epoch != unreadable {
				t.Errorf("GetMany position %d (id %d) = epoch %d ok=%v, want the unreadable epoch", i, id, out[i].Epoch, oks[i])
			}
		}
		if b.Len() != held {
			t.Errorf("Len = %d: the held ids stay counted", b.Len())
		}
	}
	t.Run("closed", func(t *testing.T) {
		b, ids := setup(t) // 0..7 in the snapshot, 8..15 in the log
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		unreadableAll(t, b, ids, 16)
	})
	t.Run("wedged", func(t *testing.T) {
		b, ids := setup(t)
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		inSync, release := stallSync(t)
		for id := uint64(16); id < 22; id++ { // 16..19 in flight, 20, 21 open
			if err := b.Put(id, backend.Sealed{Ct: ct(byte(id)), Epoch: id + 1}); err != nil {
				t.Fatal(err)
			}
			if id == 19 {
				<-inSync
			}
		}
		release(errors.New("injected fsync failure"))
		if err := b.Flush(); err == nil {
			t.Fatal("Flush after a failed commit succeeded")
		}
		unreadableAll(t, b, append(ids, 16, 19, 20, 21), 22)
		b.Close()
	})
}

// TestLogRecordLimitRefused: a put that would number a log record past
// what recent can index is refused before it is logged, a checkpoint
// starts a new log, and a log holding more records than that is refused
// at Open.
func TestLogRecordLimitRefused(t *testing.T) {
	real := maxLogRecords
	maxLogRecords = 8
	defer func() { maxLogRecords = real }()
	dir := t.TempDir()
	opt := Options{GroupCommit: 1, Capacity: 64}
	b := mustOpen(t, dir, opt)
	m := model{}
	put := func(b *Backend, ids ...uint64) error {
		ops := make([]backend.PutOp, len(ids))
		for i, id := range ids {
			ops[i] = backend.PutOp{Local: id, Sb: backend.Sealed{Ct: ct(byte(id)), Epoch: uint64(len(m)) + 1}}
		}
		err := b.PutMany(ops)
		if err == nil {
			for _, op := range ops {
				m[op.Local] = op.Sb
			}
		}
		return err
	}
	for id := uint64(0); id < 6; id++ {
		if err := put(b, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := put(b, 6, 7); err == nil { // a header and two members: 9 records
		t.Fatal("a vector past the record limit accepted")
	}
	if err := put(b, 6); err != nil {
		t.Fatal(err)
	}
	if err := put(b, 7); err != nil {
		t.Fatal(err)
	}
	if err := put(b, 8); err == nil {
		t.Fatal("a put past the record limit accepted")
	}
	m.checkAll(t, b, 64, "at the limit")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	maxLogRecords = 4
	if r, err := Open(dir, opt); err == nil {
		r.Close()
		t.Fatal("a log of 8 records opened at a limit of 4")
	}
	maxLogRecords = 8
	b = mustOpen(t, dir, opt)
	if err := b.Checkpoint(nil, 100); err != nil {
		t.Fatal(err)
	}
	if err := put(b, 8); err != nil {
		t.Fatalf("a put after the checkpoint: %v", err)
	}
	m.checkAll(t, b, 64, "after the checkpoint")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// runWALScript interprets script as operations on a WAL and on a model
// map, and after every operation compares every id's Get, one GetMany
// over all ids and Len. An operation is an opcode byte and the bytes it
// needs; a script that ends mid-operation ends there.
//
//	0-2  Put(id, next epoch)
//	3    PutMany of the next byte's low 2 bits + 1 ids
//	4    Flush
//	5    Checkpoint
//	6    Close and Open
//	7    crash (the held records reach the file, nothing is synced) and Open
//
// At GroupCommit 3 the blocks' last records lie in the open batch, the
// batch in flight, the log file, a replayed tail and the snapshot, and
// the log's region starts at one page, so it is reopened as it grows.
func runWALScript(t *testing.T, script []byte, unmapped bool) {
	const capacity = 48
	inMode(t, !unmapped, 4096, func(t *testing.T) {
		dir := t.TempDir()
		opt := Options{GroupCommit: 3, Capacity: capacity}
		b := mustOpen(t, dir, opt)
		defer func() { b.Close() }()
		m := model{}
		epoch := uint64(0)
		next := func() (byte, bool) {
			if len(script) == 0 {
				return 0, false
			}
			c := script[0]
			script = script[1:]
			return c, true
		}
		op := func(id byte) backend.PutOp {
			epoch++
			return backend.PutOp{Local: uint64(id) % capacity, Sb: backend.Sealed{Ct: ct(id ^ byte(epoch)), Epoch: epoch}}
		}
		for step := 0; ; step++ {
			c, ok := next()
			if !ok {
				return
			}
			var ops []backend.PutOp
			switch c & 7 {
			case 0, 1, 2:
				id, ok := next()
				if !ok {
					return
				}
				ops = append(ops, op(id))
			case 3:
				n, ok := next()
				for i := 0; ok && i <= int(n&3); i++ {
					var id byte
					if id, ok = next(); ok {
						ops = append(ops, op(id))
					}
				}
				if !ok {
					return
				}
			case 4:
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
			case 5:
				epoch++
				if err := b.Checkpoint([]byte("meta"), epoch); err != nil {
					t.Fatal(err)
				}
			case 6:
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				b = mustOpen(t, dir, opt)
			case 7:
				crashWithoutSync(b)
				b = mustOpen(t, dir, opt)
			}
			if len(ops) > 0 {
				if err := b.PutMany(ops); err != nil {
					t.Fatal(err)
				}
				for _, op := range ops {
					m[op.Local] = op.Sb
				}
			}
			m.checkAll(t, b, capacity, fmt.Sprintf("after step %d (opcode %d)", step, c&7))
		}
	})
}

// randomWALScript draws n operations, mostly puts.
func randomWALScript(seed uint64, n int) []byte {
	r := rng.New(seed)
	var script []byte
	for i := 0; i < n; i++ {
		c := byte(r.Uint64n(8))
		if r.Uint64n(4) != 0 {
			c = byte(r.Uint64n(4)) // puts: three in four
		}
		script = append(script, c)
		switch c {
		case 0, 1, 2:
			script = append(script, byte(r.Uint64()))
		case 3:
			k := byte(r.Uint64n(4))
			script = append(script, k)
			for j := byte(0); j <= k; j++ {
				script = append(script, byte(r.Uint64()))
			}
		}
	}
	return script
}

// TestWALMatchesModel is FuzzWALModel's seeded form at a length the
// fuzzer's 256-byte cap does not reach.
func TestWALMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		runWALScript(t, randomWALScript(seed, 400), seed == 2)
	}
}

// FuzzWALModel lets the fuzzer write the script — its first 256 bytes, so
// that minimizing an input that reached new code stays short.
func FuzzWALModel(f *testing.F) {
	f.Add(randomWALScript(3, 60), false)
	f.Add(randomWALScript(4, 60), true)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 3, 4, 5, 6, 7, 0, 9, 6, 0, 1, 5, 0, 1, 7}, false)
	f.Fuzz(func(t *testing.T, script []byte, unmapped bool) {
		runWALScript(t, script[:min(len(script), 256)], unmapped)
	})
}
