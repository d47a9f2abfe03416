// Engine-level consequences of the core's rules, checked through both
// engines from outside (an in-package test cannot import them).
package durable_test

import (
	"bytes"
	"errors"
	"testing"

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
