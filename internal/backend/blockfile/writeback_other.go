//go:build !linux || arm

package blockfile

// startWriteback starts nothing: the writeback hint is Linux's
// sync_file_range, which the syscall package lacks here. The commit's
// data sync writes the whole batch back by itself.
func (b *Backend) startWriteback() {}
