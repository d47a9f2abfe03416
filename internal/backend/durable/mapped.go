package durable

import (
	"fmt"
	"io"
	"os"
	"runtime/debug"
)

// The engines read sealed blocks in place from their files: blockfile
// from its slot file, the WAL from its snapshot. On Linux the file is
// mapped read-only (mapReadOnly) and a read is a copy out of the page
// cache; elsewhere it is one ReadAt. A mapped read of a page the file no
// longer has — the file truncated under the mapping, or the device
// failing to page it in — is a SIGBUS, which the runtime turns into a
// panic only while debug.SetPanicOnFault is set. Every mapped read runs
// under that guard, so a fault surfaces as a failed read (the engines'
// unreadable epoch, which the shard's epoch check fails loudly) and
// never as a crash.

// readMapped copies src, a range of a mapping, into dst under the fault
// guard, and reports whether it could.
func readMapped(dst, src []byte) bool {
	return Guarded(func() error { copy(dst, src); return nil }) == nil
}

// Guarded runs fn under the fault guard: a fault in a mapping that fn
// reads returns as an error instead of crashing. Any other panic is a bug
// and is re-raised. Work that reads many mapped ranges in a row (a
// snapshot's CRC, a checkpoint's merge) takes the guard once for all of
// them.
func Guarded(fn func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			f, fault := r.(interface{ Addr() uintptr })
			if !fault {
				panic(r)
			}
			err = fmt.Errorf("fault reading a mapped file at %#x", f.Addr())
		}
	}()
	return fn()
}

// Region is a file opened for reads in place: mapped where the platform
// allows, read through the open file elsewhere. Like the backends that
// hold one, it is confined to one goroutine.
type Region struct {
	m    []byte   // the file mapped; nil: read through f
	f    *os.File // open only where m is nil
	size int64    // reads end here
}

// mapRegion maps a Region's file; a variable so that ReadWithoutMapping
// can switch the mapping off.
var mapRegion = mapReadOnly

// ReadWithoutMapping makes every Region opened until restore is called
// read through its file, as on a platform or address space without the
// mapping, so that tests on Linux run that path too.
func ReadWithoutMapping() (restore func()) {
	real := mapRegion
	mapRegion = func(*os.File, uint64, bool) []byte { return nil }
	return func() { mapRegion = real }
}

// OpenRegion opens path for reads in place over its first span bytes, or
// over the file as it is when span is 0. A span past the file's end
// covers what later writes add: reading a byte the file does not hold
// yet fails, and reading it once written succeeds. random turns
// readahead off (mapReadOnly).
func OpenRegion(path string, span int64, random bool) (*Region, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if span == 0 {
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		span = fi.Size()
	}
	r := &Region{size: span}
	if r.m = mapRegion(f, uint64(span), random); r.m != nil {
		f.Close() // the mapping outlives the descriptor
	} else {
		r.f = f
	}
	return r, nil
}

// Mapped reports whether reads copy out of a mapping.
func (r *Region) Mapped() bool { return r.m != nil }

// ReadAt copies the len(dst) bytes at off into dst and reports whether it
// could: false past the span or the file's end, on an I/O error, on a
// fault in the mapping, or on a nil or closed region.
func (r *Region) ReadAt(dst []byte, off int64) bool {
	if r == nil || off < 0 || off > r.size-int64(len(dst)) {
		return false
	}
	if r.m != nil {
		return readMapped(dst, r.m[off:off+int64(len(dst))])
	}
	if r.f == nil {
		return false
	}
	_, err := r.f.ReadAt(dst, off)
	return err == nil
}

// WriteTo writes the n bytes at off to w. From a mapping it hands w the
// mapped bytes themselves, so it must run under Guarded.
func (r *Region) WriteTo(w io.Writer, off, n int64) error {
	if off < 0 || n < 0 || off > r.size-n {
		return fmt.Errorf("range [%d, %d) outside a %d-byte file", off, off+n, r.size)
	}
	if r.m != nil {
		_, err := w.Write(r.m[off : off+n])
		return err
	}
	copied, err := io.Copy(w, io.NewSectionReader(r.f, off, n))
	if err == nil && copied != n {
		err = io.ErrUnexpectedEOF // the file shrank under the region
	}
	return err
}

// Close unmaps the region or closes its file; nil is none.
func (r *Region) Close() {
	if r == nil {
		return
	}
	unmap(r.m)
	if r.f != nil {
		r.f.Close()
	}
	r.m, r.f = nil, nil
}
