//go:build !linux || arm

package blockfile

import "os"

// hintWriteback is false: the writeback hint is Linux's sync_file_range,
// which the syscall package lacks here. The commit's data sync writes the
// whole batch back by itself.
const hintWriteback = false

// writeback is never called where hintWriteback is false.
var writeback = func(*os.File) {}
