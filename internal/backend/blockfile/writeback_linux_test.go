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
// no quarter batch), and none for a PutMany that closes its batch.
func TestWritebackNoHint(t *testing.T) {
	fired := hookWriteback(t)
	for _, group := range []int{1, 2, 3} {
		b := mustOpen(t, t.TempDir(), Options{GroupCommit: group})
		if b.wbKick != nil {
			t.Errorf("GroupCommit %d runs a writeback helper", group)
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
	putMany(t, b, 0, 32)   // closes its batch from empty
	putMany(t, b, 100, 20) // crosses 8 and 16 held: one hint
	awaitHint(t, fired, "a PutMany to 20 held records")
	putMany(t, b, 200, 12) // crosses 24 but closes the batch
	putMany(t, b, 300, 40) // closes its batch from empty
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(fired); n != 0 {
		t.Fatalf("%d hints for PutManys that closed their batch, want none", n)
	}
}

// TestWritebackHelperStops: Close and a wedge both wait for a hint in
// flight, with the slot file still open, then the helper exits.
func TestWritebackHelperStops(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Backend) error
	}{
		{"close", func(b *Backend) error { return b.Close() }},
		{"wedge", func(b *Backend) error {
			if b.Flush() == nil { // its data sync fails and wedges the backend
				return errors.New("Flush returned nil over a failing data sync")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entered, release, stat := make(chan struct{}, 1), make(chan struct{}), make(chan error, 1)
			realWB, realSync := writeback, syncFile
			failSync := false
			writeback = func(f *os.File) {
				entered <- struct{}{}
				<-release
				_, err := f.Stat()
				stat <- err
			}
			syncFile = func(s *durable.Fsync, f *os.File) error {
				if failSync && filepath.Base(f.Name()) == dataName {
					return errors.New("injected data sync failure")
				}
				return realSync(s, f)
			}
			defer func() { writeback, syncFile = realWB, realSync }()

			b := mustOpen(t, t.TempDir(), Options{GroupCommit: 32})
			for i := uint64(1); i <= 8; i++ {
				put(t, b, i)
			}
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("no writeback hint after 8 held records")
			}
			done := b.wbDone
			failSync = tc.name == "wedge"
			stopped := make(chan error, 1)
			go func() { stopped <- tc.stop(b) }()
			time.Sleep(20 * time.Millisecond)
			select {
			case err := <-stopped:
				t.Fatalf("%s returned (%v) while a hint was in flight", tc.name, err)
			default:
			}
			close(release)
			if err := <-stat; err != nil {
				t.Fatalf("the hint in flight found the slot file closed: %v", err)
			}
			if err := <-stopped; err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
			default:
				t.Fatalf("writeback helper still running after %s", tc.name)
			}
			if tc.name == "wedge" {
				if err := b.Close(); err == nil {
					t.Fatal("Close after the wedge returned nil, want the sync failure")
				}
			}
		})
	}
}
