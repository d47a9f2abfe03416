package blockfile_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palermo/internal/backend/blockfile"
	"palermo/internal/serve"
	"palermo/internal/shard"
)

const (
	servedGroup  = 8
	servedBlocks = 1 << 10
)

// servedStack is one shard over a blockfile backend behind its serving
// worker, the stack a store runs per shard.
type servedStack struct {
	be  *blockfile.Backend
	svc *serve.Service
}

// openServed opens the stack at GroupCommit 8 and writes block 0 once,
// so the first epoch's reservation commit and the batch it leaves are
// behind it.
func openServed(t *testing.T) servedStack {
	t.Helper()
	be, err := blockfile.Open(t.TempDir(), blockfile.Options{GroupCommit: servedGroup, Capacity: servedBlocks})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.New(0, 1, servedBlocks, bytes.Repeat([]byte{7}, 32), 1, be)
	if err != nil {
		t.Fatal(err)
	}
	st := servedStack{be: be, svc: serve.New(sh, serve.Config{})}
	if err := st.do(serve.OpWrite, 0, block(0)); err != nil {
		t.Fatal(err)
	}
	var ferr error
	if err := st.svc.Sync(func() { ferr = be.Flush() }); err != nil || ferr != nil {
		t.Fatal(err, ferr)
	}
	return st
}

func block(v byte) []byte { return bytes.Repeat([]byte{v}, shard.BlockBytes) }

// do submits one op and waits for its completion.
func (st servedStack) do(op serve.Op, id uint64, data []byte) error {
	done := make(chan error, 1)
	if err := st.svc.SubmitFunc(op, id, data, func(_ int, got []byte, err error) {
		if err == nil && op == serve.OpRead && !bytes.Equal(got, data) {
			err = errors.New("read returned the wrong block")
		}
		done <- err
	}); err != nil {
		return err
	}
	return <-done
}

// writeAll submits writes to blocks 1..n from four goroutines without
// waiting for them, then waits until the worker has run them all. Each
// completion adds one to calls[id] and stores its error in errs[id].
func (st servedStack) writeAll(t *testing.T, n int, calls []atomic.Int32, errs []atomic.Value) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 1 + g; id <= n; id += 4 {
				err := st.svc.SubmitFunc(serve.OpWrite, uint64(id), block(byte(id)), func(_ int, _ []byte, err error) {
					calls[id].Add(1)
					errs[id].Store(errBox{err})
				})
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := st.svc.Sync(func() {}); err != nil {
		t.Fatal(err)
	}
}

type errBox struct{ err error }

func acked(calls []atomic.Int32) int {
	n := 0
	for i := range calls {
		n += int(calls[i].Load())
	}
	return n
}

// TestOneBatchWindowServed pins DESIGN §9's durability window where
// acknowledgments happen. Twelve writes from four goroutines run while
// the commit of the batch the eighth closed stalls in its data sync:
// exactly GroupCommit − 1 are acknowledged, the closing write and the
// four behind it are held, and reads submitted meanwhile complete.
func TestOneBatchWindowServed(t *testing.T) {
	st := openServed(t)
	entered, release := blockfile.StallDataSync(t, nil)
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	defer func() { unstall(); st.svc.Close() }()

	const n = servedGroup + 4 // the next batch stays open: no write waits for the stalled commit
	calls, errs := make([]atomic.Int32, n+1), make([]atomic.Value, n+1)
	st.writeAll(t, n, calls, errs)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no data sync after a full batch of writes")
	}
	check := func(when string) {
		t.Helper()
		if got := acked(calls); got != servedGroup-1 {
			t.Fatalf("%s: %d writes acknowledged, want GroupCommit-1 = %d", when, got, servedGroup-1)
		}
		if w := serve.MergeStats([]*serve.Service{st.svc}).Writes; w != servedGroup {
			t.Fatalf("%s: stats count %d writes, want the %d acknowledged ones and the first", when, w, servedGroup)
		}
	}
	check("stall")

	var reads sync.WaitGroup
	readErrs := make(chan error, n)
	for id := 1; id <= n; id++ {
		reads.Add(1)
		go func() {
			defer reads.Done()
			readErrs <- st.do(serve.OpRead, uint64(id), block(byte(id)))
		}()
	}
	finished := make(chan struct{})
	go func() { reads.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("reads submitted during the stalled commit did not complete")
	}
	close(readErrs)
	for err := range readErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	check("reads served")

	unstall()
	if err := st.svc.Sync(func() {}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for acked(calls) != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for id := 1; id <= n; id++ {
		if c := calls[id].Load(); c != 1 {
			t.Fatalf("write %d completed %d times after the commit, want once", id, c)
		}
		if err := errs[id].Load().(errBox).err; err != nil {
			t.Fatalf("write %d: %v", id, err)
		}
	}
	if err := st.svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitFailureFailsHeldWrites: a data sync that fails under the
// helper fails every write held for its commit, once, with its error;
// later operations fail, Close returns the cause, and the helper exits.
func TestCommitFailureFailsHeldWrites(t *testing.T) {
	st := openServed(t)
	helper := blockfile.HelperDone(st.be)
	injected := errors.New("injected data sync failure")
	entered, release := blockfile.StallDataSync(t, injected)

	const n = servedGroup + 4
	calls, errs := make([]atomic.Int32, n+1), make([]atomic.Value, n+1)
	st.writeAll(t, n, calls, errs)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no data sync after a full batch of writes")
	}
	early := make([]bool, n+1) // acknowledged before the commit settled
	for id := range early {
		early[id] = calls[id].Load() == 1
	}
	if got := acked(calls); got != servedGroup-1 {
		t.Fatalf("%d writes acknowledged during the stall, want %d", got, servedGroup-1)
	}
	close(release)
	if err := st.svc.Sync(func() {}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for acked(calls) != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for id := 1; id <= n; id++ {
		if c := calls[id].Load(); c != 1 {
			t.Fatalf("write %d completed %d times, want once", id, c)
		}
		err := errs[id].Load().(errBox).err
		switch {
		case early[id] && err != nil:
			t.Fatalf("write %d, acknowledged before the commit: %v", id, err)
		case !early[id] && !errors.Is(err, injected):
			t.Fatalf("held write %d completed with %v, want the commit's failure", id, err)
		}
	}
	if err := st.do(serve.OpWrite, 1, block(1)); !errors.Is(err, injected) {
		t.Fatalf("a write after the failed commit = %v, want its failure", err)
	}
	if err := st.do(serve.OpRead, 1, block(1)); err == nil {
		t.Fatal("a read after the failed commit succeeded")
	}
	if err := st.svc.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close = %v, want the commit's failure", err)
	}
	select {
	case <-helper:
	case <-time.After(5 * time.Second):
		t.Fatal("the helper goroutine is still running after Close")
	}
}
