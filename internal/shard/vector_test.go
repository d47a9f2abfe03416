package shard

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/rng"
)

// recBackend is a durable in-memory VectorBackend that records what reaches
// it — every call by kind, every sealed put and every checkpoint blob, in
// order — and fails its failAt-th PutMany (1-based) or every Checkpoint on
// command.
type recBackend struct {
	latest   map[uint64]int // local -> index in puts of its last store
	calls    []string       // "put", "putmany:<n>", "checkpoint"
	puts     []backend.PutOp
	metas    []sealedMeta
	vectors  int
	failAt   int
	failCkpt bool
	closed   bool
}

func newRecBackend() *recBackend { return &recBackend{latest: make(map[uint64]int)} }

// sealedMeta is one checkpoint blob and the epoch it is sealed under.
type sealedMeta struct {
	blob  []byte
	epoch uint64
}

var errInjected = errors.New("backend: injected failure")

func (b *recBackend) Get(local uint64) (backend.Sealed, bool) {
	i, ok := b.latest[local]
	if !ok {
		return backend.Sealed{}, false
	}
	return b.puts[i].Sb, true
}

func (b *recBackend) GetMany(locals []uint64, out []backend.Sealed, ok []bool) {
	for i, local := range locals {
		out[i], ok[i] = b.Get(local)
	}
}

// store keeps a copy of one put, as the Backend contract requires (the
// shard reseals into the same staging bytes).
func (b *recBackend) store(local uint64, sb backend.Sealed) {
	sb.Ct = append([]byte(nil), sb.Ct...)
	b.latest[local] = len(b.puts)
	b.puts = append(b.puts, backend.PutOp{Local: local, Sb: sb})
}

func (b *recBackend) Put(local uint64, sb backend.Sealed) error {
	b.calls = append(b.calls, "put")
	b.store(local, sb)
	return nil
}

func (b *recBackend) PutMany(ops []backend.PutOp) error {
	b.calls = append(b.calls, fmt.Sprintf("putmany:%d", len(ops)))
	if b.vectors++; b.vectors == b.failAt {
		return errInjected
	}
	for _, op := range ops {
		b.store(op.Local, op.Sb)
	}
	return nil
}

func (b *recBackend) Checkpoint(meta []byte, metaEpoch uint64) error {
	b.calls = append(b.calls, "checkpoint")
	if b.failCkpt {
		return errInjected
	}
	b.metas = append(b.metas, sealedMeta{append([]byte(nil), meta...), metaEpoch})
	return nil
}

func (b *recBackend) Len() int                                      { return len(b.latest) }
func (b *recBackend) Durable() bool                                 { return true }
func (b *recBackend) Recovered() ([]byte, uint64, []backend.TailOp) { return nil, 0, nil }
func (b *recBackend) Flush() error                                  { return nil }
func (b *recBackend) Close() error                                  { b.closed = true; return nil }

// vectorShard builds a traced shard over a fresh recBackend and forgets the
// creation checkpoint.
func vectorShard(t *testing.T, ckptEvery uint64) (*Shard, *recBackend) {
	t.Helper()
	be := newRecBackend()
	s, err := New(0, 1, 1<<10, testKey, 11, be)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTrace()
	s.SetCheckpointEvery(ckptEvery)
	be.calls = nil
	return s, be
}

// writeMany runs one WriteMany and returns its outcomes.
func writeMany(s *Shard, locals []uint64, data [][]byte) []error {
	errs := make([]error, len(locals))
	s.WriteMany(locals, data, errs)
	return errs
}

// seqWrites is n writes to consecutive ids from base.
func seqWrites(base uint64, n int) ([]uint64, [][]byte) {
	locals, data := make([]uint64, n), make([][]byte, n)
	for i := range locals {
		locals[i] = base + uint64(i)
		data[i] = bytes.Repeat([]byte{byte(i)}, BlockBytes)
	}
	return locals, data
}

// TestWriteManyVectors: n vector writes reach the backend as ceil(n/128)
// PutMany calls holding the writes in order, and a scalar Write as one Put.
func TestWriteManyVectors(t *testing.T) {
	s, be := vectorShard(t, 0)
	locals, data := seqWrites(3, 300)
	for i, err := range writeMany(s, locals, data) {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if want := []string{"putmany:128", "putmany:128", "putmany:44"}; !reflect.DeepEqual(be.calls, want) {
		t.Fatalf("backend calls %v, want %v", be.calls, want)
	}
	for i, op := range be.puts {
		if op.Local != locals[i] {
			t.Fatalf("put %d carries block %d, want %d", i, op.Local, locals[i])
		}
	}
	be.calls = nil
	if err := s.Write(7, data[0]); err != nil {
		t.Fatal(err)
	}
	if want := []string{"put"}; !reflect.DeepEqual(be.calls, want) {
		t.Fatalf("a scalar Write reached the backend as %v, want %v", be.calls, want)
	}
	for i, local := range locals {
		want := data[i]
		if local == 7 {
			want = data[0]
		}
		if got, err := s.Read(local); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d reads back %x, %v", local, got[:4], err)
		}
	}
}

// TestWriteManyEqualsScalarWrites: the same op stream through WriteMany
// (runs of random length, duplicate ids inside a run, reads between runs, a
// checkpoint threshold that lands mid-vector) and through one Write at a
// time yields the same ciphertexts in the same order, the same checkpoint
// plaintext byte for byte at the same points of the put stream, the same
// leaf trace and the same counters.
func TestWriteManyEqualsScalarWrites(t *testing.T) {
	vec, vbe := vectorShard(t, 50)
	ref, rbe := vectorShard(t, 50)
	r := rng.New(5)
	for round := 0; round < 40; round++ {
		n := 1 + r.Intn(200)
		locals, data := make([]uint64, n), make([][]byte, n)
		for i := range locals {
			locals[i] = r.Uint64n(1 << 6) // a small id space: duplicates inside a run
			data[i] = bytes.Repeat([]byte{byte(round), byte(i)}, BlockBytes/2)
		}
		for i, err := range writeMany(vec, locals, data) {
			if err != nil {
				t.Fatalf("round %d vector write %d: %v", round, i, err)
			}
		}
		for i := range locals {
			if err := ref.Write(locals[i], data[i]); err != nil {
				t.Fatalf("round %d scalar write %d: %v", round, i, err)
			}
		}
		for k := 0; k < 5; k++ {
			id := r.Uint64n(1 << 6)
			a, errA := vec.Read(id)
			b, errB := ref.Read(id)
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("round %d read of %d: %v / %v", round, id, errA, errB)
			}
		}
	}
	// ckptAt lists how many puts the backend held at each of its checkpoints.
	ckptAt := func(be *recBackend) (at []int) {
		puts := 0
		for _, c := range be.calls {
			switch {
			case c == "checkpoint":
				at = append(at, puts)
			case c == "put":
				puts++
			default:
				var n int
				fmt.Sscanf(c, "putmany:%d", &n)
				puts += n
			}
		}
		return at
	}
	vecAt, refAt := ckptAt(vbe), ckptAt(rbe)
	if len(refAt) < 3 || !reflect.DeepEqual(vecAt, refAt) {
		t.Fatalf("checkpoints after %v puts through vectors, %v through scalar writes", vecAt, refAt)
	}
	if !reflect.DeepEqual(vbe.puts, rbe.puts) {
		t.Fatal("the sealed put streams differ")
	}
	for i, m := range rbe.metas {
		v := vbe.metas[i]
		a := vec.sealer.Blob(vec.metaAddr(), v.epoch, v.blob)
		b := ref.sealer.Blob(ref.metaAddr(), m.epoch, m.blob)
		if v.epoch != m.epoch || !bytes.Equal(a, b) {
			t.Fatalf("checkpoint %d holds different state through vectors and through scalar writes", i)
		}
	}
	if !reflect.DeepEqual(vec.Trace(), ref.Trace()) {
		t.Fatal("the leaf traces differ")
	}
	if vec.Snapshot() != ref.Snapshot() {
		t.Fatalf("counters %+v through vectors, %+v through scalar writes", vec.Snapshot(), ref.Snapshot())
	}
	if 4*len(vbe.calls) > len(rbe.calls) {
		t.Fatalf("%d backend calls through vectors against %d scalar: hardly coalesced", len(vbe.calls), len(rbe.calls))
	}
}

// TestWriteManyFailedVector: when the backend refuses a vector, every write
// of that vector reports the failure — the vectors before it succeeded, the
// writes after it fail fast without reaching the backend — every later
// operation fails fast, and Close returns the cause without checkpointing.
func TestWriteManyFailedVector(t *testing.T) {
	s, be := vectorShard(t, 0)
	be.failAt = 2
	locals, data := seqWrites(0, 300)
	errs := writeMany(s, locals, data)
	for i, err := range errs {
		switch {
		case i < maxVector && err != nil:
			t.Fatalf("write %d rode the first vector, which succeeded: %v", i, err)
		case i >= maxVector && !errors.Is(err, errInjected):
			t.Fatalf("write %d = %v, want the injected vector failure", i, err)
		}
	}
	if want := []string{"putmany:128", "putmany:128"}; !reflect.DeepEqual(be.calls, want) {
		t.Fatalf("backend calls %v, want %v (nothing after the refused vector)", be.calls, want)
	}
	if err := s.Write(1, data[0]); !errors.Is(err, errInjected) {
		t.Fatalf("Write after a failed vector = %v", err)
	}
	if _, err := s.Read(1); !errors.Is(err, errInjected) {
		t.Fatalf("Read after a failed vector = %v", err)
	}
	if errs := writeMany(s, locals[:2], data[:2]); !errors.Is(errs[0], errInjected) || !errors.Is(errs[1], errInjected) {
		t.Fatalf("WriteMany after a failed vector = %v", errs)
	}
	if _, err := s.ExportBlocks(); !errors.Is(err, errInjected) {
		t.Fatalf("ExportBlocks after a failed vector = %v", err)
	}
	if err := s.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want the root cause", err)
	}
	if !be.closed || len(be.calls) != 2 {
		t.Fatalf("Close must release the backend and write no checkpoint: closed=%v calls=%v", be.closed, be.calls)
	}
}

// TestWriteManyBadWrites: a write WriteMany rejects up front fails alone;
// its neighbours ride one vector, and the shard stays usable.
func TestWriteManyBadWrites(t *testing.T) {
	s, be := vectorShard(t, 0)
	locals, data := seqWrites(0, 4)
	locals[1], data[2] = 1<<10, []byte("short")
	errs := writeMany(s, locals, data)
	if errs[0] != nil || errs[1] == nil || errs[2] == nil || errs[3] != nil {
		t.Fatalf("outcomes %v, want the out-of-range and the short write refused", errs)
	}
	if want := []string{"putmany:2"}; !reflect.DeepEqual(be.calls, want) {
		t.Fatalf("backend calls %v, want %v", be.calls, want)
	}
	if got, err := s.Read(3); err != nil || !bytes.Equal(got, data[3]) {
		t.Fatalf("block 3 reads back %v, %v", got, err)
	}
}

// TestWriteManyCheckpointFailure: a checkpoint the backend refuses surfaces
// on the write that triggered it, as it does for Write; the writes staged
// with it were delivered first and succeed.
func TestWriteManyCheckpointFailure(t *testing.T) {
	s, be := vectorShard(t, 3)
	be.failCkpt = true
	locals, data := seqWrites(0, 5)
	errs := writeMany(s, locals, data)
	for i, err := range errs {
		if want := i >= 2; (err != nil) != want {
			t.Fatalf("write %d = %v; only the writes that trigger a checkpoint fail", i, err)
		}
	}
	if !errors.Is(errs[2], errInjected) {
		t.Fatalf("write 2 = %v, want the checkpoint failure", errs[2])
	}
	if want := []string{"putmany:3", "checkpoint", "putmany:1", "checkpoint", "putmany:1", "checkpoint"}; !reflect.DeepEqual(be.calls, want) {
		t.Fatalf("backend calls %v, want %v", be.calls, want)
	}
	if err := s.Write(9, data[0]); !errors.Is(err, errInjected) {
		t.Fatalf("a scalar write retries the checkpoint too: %v", err)
	}
}

// TestShardClosedAndInvalidOps: bad requests are refused before the sealer
// or the engine sees them, and a closed shard refuses everything.
func TestShardClosedAndInvalidOps(t *testing.T) {
	s, err := New(0, 1, 1<<4, testKey, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, BlockBytes)
	if _, err := s.Read(1 << 4); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := s.Write(0, []byte("short")); err == nil {
		t.Fatal("undersized write accepted")
	}
	if c := s.Snapshot(); c.Reads != 0 || c.Writes != 0 {
		t.Fatalf("refused operations reached the engine: %+v", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(0); err == nil {
		t.Fatal("read on closed shard accepted")
	}
	if err := s.Write(0, data); err == nil {
		t.Fatal("write on closed shard accepted")
	}
	if errs := writeMany(s, []uint64{0}, [][]byte{data}); errs[0] == nil {
		t.Fatal("vector write on closed shard accepted")
	}
}
