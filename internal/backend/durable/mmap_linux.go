//go:build linux

package durable

import (
	"math"
	"os"
	"syscall"
)

// mapReadOnly maps the first size bytes of f read-only and shared, so a
// read copies resident bytes out of the page cache without a syscall. The
// range may run past the file's end: a page that a later write adds is
// readable through the same mapping, and a page still past the end
// faults (readMapped's guard). random turns readahead off, so a miss on
// a file larger than RAM reads one page, as pread does. It returns nil
// where the mapping cannot be made (a 32-bit address space), and the
// caller reads with ReadAt.
func mapReadOnly(f *os.File, size uint64, random bool) []byte {
	if size == 0 || size > math.MaxInt {
		return nil
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil
	}
	if random {
		if err := syscall.Madvise(m, syscall.MADV_RANDOM); err != nil {
			_ = syscall.Munmap(m) // unmapping a mapping just made fails only on a bug
			return nil
		}
	}
	return m
}

// unmap releases a mapping mapReadOnly made; nil is none.
func unmap(m []byte) {
	if m != nil {
		_ = syscall.Munmap(m) // m is a whole live mapping: only a bug fails
	}
}
