//go:build !linux

package durable

import "os"

// mapReadOnly maps nothing here: readers use ReadAt.
func mapReadOnly(*os.File, uint64, bool) []byte { return nil }

// unmap releases nothing here.
func unmap([]byte) {}
