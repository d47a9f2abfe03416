// Package codec is the bounds-checked little-endian reader the engine's
// checkpoint decoders share (DESIGN.md §7, "Checkpoint contents"). Each
// structure writes its own section with encoding/binary's Append helpers
// and reads it back through one Reader, whose first failure sticks: a
// short or hostile input makes every later read return zero, and the
// decoder reports the first cause instead of panicking.
package codec

import (
	"encoding/binary"
	"fmt"
)

// Reader consumes a byte slice front to back.
type Reader struct {
	buf []byte
	off int // bytes consumed, for error positions
	err error
}

// NewReader reads b (not copied).
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the bytes not yet consumed.
func (r *Reader) Len() int { return len(r.buf) }

// Failf records a failure at the current position unless one is already
// recorded, and returns the recorded one.
func (r *Reader) Failf(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("at byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
	return r.err
}

// Bytes consumes and returns the next n bytes (aliasing the input), or nil
// after a failure or when fewer than n remain.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.Failf("need %d bytes, %d left", n, len(r.buf))
		return nil
	}
	b := r.buf[:n:n]
	r.buf, r.off = r.buf[n:], r.off+n
	return b
}

// Uint8 consumes one byte.
func (r *Reader) Uint8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// Uint16 consumes a little-endian uint16.
func (r *Reader) Uint16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// Uint32 consumes a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uint64 consumes a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Count consumes a uint32 element count and checks it against max and
// against the input left, each element taking at least width bytes — so a
// hostile count fails here, before anything is sized from it.
func (r *Reader) Count(what string, max uint64, width int) int {
	n := uint64(r.Uint32())
	switch {
	case r.err != nil:
		return 0
	case n > max:
		r.Failf("%d %s, at most %d fit", n, what, max)
		return 0
	case n*uint64(width) > uint64(len(r.buf)):
		r.Failf("%d %s need %d bytes, %d left", n, what, n*uint64(width), len(r.buf))
		return 0
	}
	return int(n)
}
