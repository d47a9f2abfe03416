//go:build linux && !arm

package blockfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"palermo/internal/backend"
	"palermo/internal/backend/durable"
)

// hookWriteback makes every writeback hint report the file it was given
// on the returned channel before it runs.
func hookWriteback(t *testing.T) <-chan string {
	t.Helper()
	fired := make(chan string, 64)
	real := writeback
	writeback = func(f *os.File) {
		fired <- filepath.Base(f.Name())
		real(f)
	}
	t.Cleanup(func() { writeback = real })
	return fired
}

// awaitHint fails the test unless a hint on the slot file arrives.
func awaitHint(t *testing.T, fired <-chan string, after string) {
	t.Helper()
	select {
	case name := <-fired:
		if name != dataName {
			t.Fatalf("hint on %s after %s, want %s", name, after, dataName)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no writeback hint after %s", after)
	}
}

func put(t *testing.T, b *Backend, local uint64) {
	t.Helper()
	if err := b.Put(local, backend.Sealed{Ct: ct(byte(local)), Epoch: local + 1}); err != nil {
		t.Fatal(err)
	}
}

func putMany(t *testing.T, b *Backend, first uint64, n int) {
	t.Helper()
	ops := make([]backend.PutOp, n)
	for i := range ops {
		l := first + uint64(i)
		ops[i] = backend.PutOp{Local: l, Sb: backend.Sealed{Ct: ct(byte(l)), Epoch: l + 1}}
	}
	if err := b.PutMany(ops); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackHintAtQuarterBatches: at GroupCommit 32 the helper hints
// after 8, 16 and 24 held records of every batch, and at no other put.
func TestWritebackHintAtQuarterBatches(t *testing.T) {
	fired := hookWriteback(t)
	b := mustOpen(t, t.TempDir(), Options{GroupCommit: 32})
	for i := uint64(1); i <= 2*32+8; i++ {
		put(t, b, i)
		if held := i % 32; held%8 == 0 && held != 0 {
			awaitHint(t, fired, "a quarter batch")
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(fired); n != 0 {
		t.Fatalf("%d hints between the quarter marks", n)
	}
}

// TestWritebackNoHint: no hint at GroupCommit 1 (nor 2 or 3, which have
// no quarter batch), and none for a PutMany that closes its batch. A
// kick left unhinted in the channel counts as a hint: the helper may exit
// before it takes one.
func TestWritebackNoHint(t *testing.T) {
	fired := hookWriteback(t)
	for _, group := range []int{1, 2, 3} {
		b := mustOpen(t, t.TempDir(), Options{GroupCommit: group})
		done, kick := b.batch.Helper()
		if kick != nil {
			t.Errorf("GroupCommit %d sends writeback hints", group)
		}
		if group == 1 && done != nil {
			t.Error("GroupCommit 1 runs a helper; its every commit belongs in its Put")
		}
		for i := uint64(1); i <= 40; i++ {
			put(t, b, i)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(fired); n != 0 {
		t.Fatalf("%d hints at GroupCommit 1–3, want none", n)
	}

	b := mustOpen(t, t.TempDir(), Options{GroupCommit: 32})
	_, kick := b.batch.Helper()
	putMany(t, b, 0, 32)   // closes its batch from empty
	putMany(t, b, 100, 20) // crosses 8 and 16 held: one hint
	awaitHint(t, fired, "a PutMany to 20 held records")
	putMany(t, b, 200, 12) // crosses 24 but closes the batch
	putMany(t, b, 300, 40) // closes its batch from empty
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(fired) + len(kick); n != 0 {
		t.Fatalf("%d hints for PutManys that closed their batch, want none", n)
	}
}

// TestWritebackHelperStops: Close and a wedge both wait for the
// helper's hint or commit in flight, with the slot file still open, then
// the helper exits; a PutMany that closes its batch hands the helper its
// commit and no hint.
func TestWritebackHelperStops(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit bool // the helper is busy with a commit, not a hint
		stop   func(*Backend) error
	}{
		{"close", false, func(b *Backend) error { return b.Close() }},
		{"wedge", false, func(b *Backend) error {
			if b.Flush() == nil { // its data sync fails and wedges the backend
				return errors.New("Flush returned nil over a failing data sync")
			}
			return nil
		}},
		{"commit", true, func(b *Backend) error { return b.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entered, release, stat := make(chan struct{}, 1), make(chan struct{}), make(chan error, 1)
			realWB, realSync := writeback, syncFile
			failSync, hints := false, 0
			// busy stalls the helper's first hint or commit, then checks
			// that the slot file is still open under it.
			busy := func(f *os.File) {
				entered <- struct{}{}
				<-release
				_, err := f.Stat()
				stat <- err
			}
			writeback = func(f *os.File) {
				if hints++; !tc.commit && hints == 1 {
					busy(f)
				}
			}
			stallCommit := false
			syncFile = func(s *durable.Fsync, f *os.File) error {
				if filepath.Base(f.Name()) == dataName {
					if failSync {
						return errors.New("injected data sync failure")
					}
					if stallCommit {
						stallCommit = false
						busy(f)
					}
				}
				return realSync(s, f)
			}
			defer func() { writeback, syncFile = realWB, realSync }()

			b := mustOpen(t, t.TempDir(), Options{GroupCommit: 32})
			put(t, b, 1) // takes the first epoch's reservation on the worker
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if tc.commit {
				stallCommit = true
				putMany(t, b, 100, 32) // closes its batch from empty
			} else {
				for i := uint64(2); i <= 9; i++ {
					put(t, b, i)
				}
			}
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the helper never started the hint or the commit")
			}
			done, kick := b.batch.Helper()
			failSync = tc.name == "wedge"
			stopped := make(chan error, 1)
			go func() { stopped <- tc.stop(b) }()
			time.Sleep(20 * time.Millisecond)
			select {
			case err := <-stopped:
				t.Fatalf("%s returned (%v) while the helper was busy", tc.name, err)
			default:
			}
			close(release)
			if err := <-stat; err != nil {
				t.Fatalf("the helper found the slot file closed: %v", err)
			}
			if err := <-stopped; err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
			default:
				t.Fatalf("helper still running after %s", tc.name)
			}
			if tc.commit && hints+len(kick) != 0 {
				t.Fatal("a PutMany that closed its batch sent a writeback hint")
			}
			if tc.name == "wedge" {
				if err := b.Close(); err == nil {
					t.Fatal("Close after the wedge returned nil, want the sync failure")
				}
			}
		})
	}
}
