package durable

import "os"

// SetSyncDir swaps the directory-sync step for the engine-level tests in
// package durable_test, and returns the function that restores it.
func SetSyncDir(f func(dir string) error) (restore func()) {
	old := syncDir
	syncDir = f
	return func() { syncDir = old }
}

// SetFsync swaps the commit path's sync for the engine-level tests in
// package durable_test, and returns the function that restores it.
func SetFsync(f func(*os.File) error) (restore func()) {
	old := fsync
	fsync = f
	return func() { fsync = old }
}
