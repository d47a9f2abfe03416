// Engine-level consequences of the core's rules, checked through both
// engines from outside (an in-package test cannot import them).
package durable_test

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"palermo/internal/backend"
	"palermo/internal/backend/blockfile"
	"palermo/internal/backend/durable"
	"palermo/internal/backend/wal"
	"palermo/internal/crypt"
)

var engines = map[string]func(dir string) (backend.Backend, error){
	"wal": func(dir string) (backend.Backend, error) { return wal.Open(dir, wal.Options{GroupCommit: 1}) },
	"blockfile": func(dir string) (backend.Backend, error) {
		return blockfile.Open(dir, blockfile.Options{GroupCommit: 1})
	},
}

func ct(fill byte) []byte { return bytes.Repeat([]byte{fill}, crypt.BlockBytes) }

// TestCheckpointFailureAfterRenameWedges: once the snapshot rename has
// happened, a failing checkpoint must not leave the backend taking writes
// into the old-seq log — the next Open would discard that log as already
// folded into the snapshot, and with it every write acknowledged since.
func TestCheckpointFailureAfterRenameWedges(t *testing.T) {
	boom := errors.New("injected directory sync failure")
	for name, open := range engines {
		for failAt, step := range map[int]string{1: "after the snapshot rename", 2: "after the log rename"} {
			t.Run(name+"/"+step, func(t *testing.T) {
				dir := t.TempDir()
				b, err := open(dir)
				if err != nil {
					t.Fatal(err)
				}
				for i := uint64(1); i <= 3; i++ {
					if err := b.Put(i, backend.Sealed{Ct: ct(byte(i)), Epoch: i}); err != nil {
						t.Fatal(err)
					}
				}
				syncs := 0
				restore := durable.SetSyncDir(func(string) error {
					if syncs++; syncs == failAt {
						return boom
					}
					return nil
				})
				err = b.Checkpoint([]byte("meta"), 4)
				restore()
				if !errors.Is(err, boom) {
					t.Fatalf("Checkpoint = %v, want the injected failure", err)
				}

				acked := uint64(3)
				if perr := b.Put(9, backend.Sealed{Ct: ct(9), Epoch: 5}); perr == nil {
					acked = 9 // acknowledged, so it has to survive the reopen below
				} else if !errors.Is(perr, boom) {
					t.Errorf("Put after the failed checkpoint = %v, want the wedging error", perr)
				}
				if acked == 9 {
					t.Error("the backend acknowledged a write after its snapshot moved ahead of its log")
				}
				if cerr := b.Close(); !errors.Is(cerr, boom) {
					t.Errorf("Close = %v, want the wedging error again", cerr)
				}

				r, err := open(dir)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer r.Close()
				for _, i := range []uint64{1, 2, 3, acked} {
					if sb, ok := r.Get(i); !ok || !bytes.Equal(sb.Ct, ct(byte(i))) {
						t.Errorf("acknowledged block %d lost across the failed checkpoint (found %v)", i, ok)
					}
				}
			})
		}
	}
}

// awaitHelpers fails t unless, within 5 s, exactly want goroutines run a
// Batch's helper (one just started may not have entered it yet).
func awaitHelpers(t *testing.T, want int, after string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := strings.Count(string(buf[:runtime.Stack(buf, true)]), "durable.(*Batch).helper(")
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers running after %s, want %d", got, after, want)
		}
	}
}

// TestCommitFailureWedges: a commit the helper runs fails after the Put
// that closed its batch was acknowledged. The next PutMany or Flush must
// return the cause, every later operation fail with it, Close return it
// again, and the helper exit.
func TestCommitFailureWedges(t *testing.T) {
	const group = 8
	opens := map[string]func(dir string) (backend.Backend, error){
		"wal": func(dir string) (backend.Backend, error) { return wal.Open(dir, wal.Options{GroupCommit: group}) },
		"blockfile": func(dir string) (backend.Backend, error) {
			return blockfile.Open(dir, blockfile.Options{GroupCommit: group})
		},
	}
	put := func(b backend.Backend, local uint64) error {
		return b.Put(local, backend.Sealed{Ct: ct(byte(local)), Epoch: local + 1})
	}
	boom := errors.New("injected commit sync failure")
	for name, open := range opens {
		for next, op := range map[string]func(b backend.Backend) error{
			// A vector that closes the next batch waits for the failed
			// commit; a shorter one might run before it settles.
			"PutMany": func(b backend.Backend) error {
				ops := make([]backend.PutOp, group)
				for i := range ops {
					l := uint64(100 + i)
					ops[i] = backend.PutOp{Local: l, Sb: backend.Sealed{Ct: ct(byte(l)), Epoch: l}}
				}
				return b.(backend.VectorBackend).PutMany(ops)
			},
			"Flush": func(b backend.Backend) error { return b.Flush() },
		} {
			t.Run(name+"/"+next, func(t *testing.T) {
				awaitHelpers(t, 0, "the tests before")
				b, err := open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				awaitHelpers(t, 1, "Open")
				// Blockfile's first epoch reservation commits on the owner;
				// take it, and empty the batch, before syncs fail.
				if err := put(b, 0); err != nil {
					t.Fatal(err)
				}
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
				var syncs atomic.Int32
				restore := durable.SetFsync(func(*os.File) error {
					syncs.Add(1)
					return boom
				})
				defer restore()
				for i := uint64(1); i <= group; i++ {
					if err := put(b, i); err != nil {
						t.Fatalf("Put %d, at most the one closing the batch, = %v; its commit belongs to the helper", i, err)
					}
				}
				if err := op(b); !errors.Is(err, boom) {
					t.Fatalf("%s after the failed commit = %v, want its cause", next, err)
				}
				if syncs.Load() == 0 {
					t.Fatal("no commit sync ran")
				}
				if err := put(b, 50); !errors.Is(err, boom) {
					t.Errorf("Put on the wedged engine = %v, want the cause", err)
				}
				if err := b.Flush(); !errors.Is(err, boom) {
					t.Errorf("Flush on the wedged engine = %v, want the cause", err)
				}
				if err := b.Checkpoint([]byte("meta"), 99); !errors.Is(err, boom) {
					t.Errorf("Checkpoint on the wedged engine = %v, want the cause", err)
				}
				if err := b.Close(); !errors.Is(err, boom) {
					t.Errorf("Close = %v, want the cause", err)
				}
				awaitHelpers(t, 0, "Close")
			})
		}
	}
}
