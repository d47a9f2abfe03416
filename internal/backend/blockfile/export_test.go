package blockfile

import (
	"os"
	"path/filepath"
	"testing"

	"palermo/internal/backend/durable"
)

// withoutMapping makes every backend opened before t ends read its slots
// with ReadAt, as on a platform or address space without the mapping.
func withoutMapping(t *testing.T) { t.Cleanup(durable.ReadWithoutMapping()) }

// StallDataSync makes every data sync of blocks.dat, until t ends, signal
// entered (dropped when full) and wait for release, then fail with fail,
// or sync when fail is nil. Close release before the backend closes.
func StallDataSync(t *testing.T, fail error) (entered <-chan struct{}, release chan<- struct{}) {
	in, out := make(chan struct{}, 1), make(chan struct{})
	real := syncFile
	syncFile = func(s *durable.Fsync, f *os.File) error {
		if filepath.Base(f.Name()) != dataName {
			return real(s, f)
		}
		select {
		case in <- struct{}{}:
		default:
		}
		<-out
		if fail != nil {
			return fail
		}
		return real(s, f)
	}
	t.Cleanup(func() { syncFile = real })
	return in, out
}

// HelperDone returns the channel that closes when b's helper goroutine
// has exited; nil where none runs.
func HelperDone(b *Backend) <-chan struct{} {
	done, _ := b.batch.Helper()
	return done
}
