//go:build !linux

package blockfile

import "os"

// mapReadOnly maps nothing here: Get reads each slot with ReadAt.
func mapReadOnly(*os.File, uint64) []byte { return nil }

func unmap([]byte) {}
