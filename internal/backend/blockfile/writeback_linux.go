//go:build linux && !arm

package blockfile

import (
	"os"
	"syscall"
)

// hintWriteback reports that the helper sends writeback hints here.
const hintWriteback = true

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages and return without waiting for it.
const syncFileRangeWrite = 0x2

// writeback starts the kernel's writeback of every dirty page of f; a
// variable so a test can observe it. It passes SYNC_FILE_RANGE_WRITE
// alone: either WAIT flag makes the kernel collect the file's writeback
// error (file_check_and_advance_wb_err), and the commit's fsync, which
// must report that error, would then not see it. Its own error is
// ignored: the commit's fsync reports any writeback failure.
var writeback = func(f *os.File) {
	_ = syscall.SyncFileRange(int(f.Fd()), 0, 0, syncFileRangeWrite)
}
