package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"palermo/internal/rng"
)

// model is the reference a Reader is checked against: a plain slice, the
// bytes consumed and whether a failure happened.
type model struct {
	buf    []byte
	off    int
	failed bool
}

// take consumes the next n bytes, or fails for good when fewer remain.
func (m *model) take(n int) []byte {
	if m.failed || n < 0 || n > len(m.buf)-m.off {
		m.failed = true
		return nil
	}
	b := m.buf[m.off : m.off+n]
	m.off += n
	return b
}

// runModel reads in through a Reader and the model side by side, two bytes
// of prog per call: the first picks Bytes, Uint8, Uint16, Uint32, Uint64,
// Count or Failf, the second its argument. Every result must be the
// model's: the same value while the input lasts, zero or nil once anything
// failed, the first error kept whatever fails later, and a Count beyond its
// bound or the bytes left refused as soon as it is read.
func runModel(t *testing.T, in, prog []byte) {
	r, m := NewReader(in), &model{buf: in}
	var first error
	for i := 0; i+1 < len(prog); i += 2 {
		call, op, arg := i/2, prog[i]%7, prog[i+1]
		failedBefore := m.failed
		var got, want uint64
		switch op {
		case 0:
			n := int(arg%24) - 2
			b, wb := r.Bytes(n), m.take(n)
			if !bytes.Equal(b, wb) || (b == nil) != (wb == nil) || cap(b) != len(b) {
				t.Fatalf("call %d: Bytes(%d) = %x (cap %d), model %x", call, n, b, cap(b), wb)
			}
		case 1, 2, 3, 4:
			width := 1 << (op - 1)
			if b := m.take(width); b != nil {
				var w [8]byte
				copy(w[:], b)
				want = binary.LittleEndian.Uint64(w[:])
			}
			switch width {
			case 1:
				got = uint64(r.Uint8())
			case 2:
				got = uint64(r.Uint16())
			case 4:
				got = uint64(r.Uint32())
			case 8:
				got = r.Uint64()
			}
		case 5:
			limit, width := uint64(arg%9), 1+int(arg/9%8)
			if b := m.take(4); b != nil {
				want = uint64(binary.LittleEndian.Uint32(b))
				if want > limit || want*uint64(width) > uint64(len(m.buf)-m.off) {
					m.failed, want = true, 0
				}
			}
			got = uint64(r.Count("entries", limit, width))
		case 6:
			err := r.Failf("call %d", call)
			if failedBefore && err != first {
				t.Fatalf("call %d: Failf replaced the first error %v with %v", call, first, err)
			}
			if !failedBefore && err.Error() != fmt.Sprintf("at byte %d: call %d", m.off, call) {
				t.Fatalf("call %d: Failf at byte %d recorded %q", call, m.off, err)
			}
			m.failed = true
		}
		if got != want {
			t.Fatalf("call %d (op %d, arg %d): read %d, model %d", call, op, arg, got, want)
		}
		if r.Len() != len(m.buf)-m.off {
			t.Fatalf("call %d: Len %d, model %d", call, r.Len(), len(m.buf)-m.off)
		}
		switch err := r.Err(); {
		case m.failed != (err != nil):
			t.Fatalf("call %d: Err() = %v, model failed = %v", call, err, m.failed)
		case failedBefore && err != first:
			t.Fatalf("call %d: the first error %v became %v", call, first, err)
		case !failedBefore && err != nil && !strings.HasPrefix(err.Error(), fmt.Sprintf("at byte %d: ", m.off)):
			t.Fatalf("call %d: failure %q does not name byte %d", call, err, m.off)
		}
		first = r.Err()
	}
}

// TestReaderMatchesModel runs the model over seeded random inputs and call
// sequences. Three input bytes in four are zero, so a uint32 read as a
// count is often small enough to pass its bound and still too big for the
// bytes left.
func TestReaderMatchesModel(t *testing.T) {
	r := rng.New(20261016)
	for trial := 0; trial < 4000; trial++ {
		in := make([]byte, r.Intn(48))
		for i := range in {
			if r.Intn(4) == 0 {
				in[i] = byte(r.Uint64())
			}
		}
		prog := make([]byte, 2*r.Intn(24))
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		runModel(t, in, prog)
	}
}

// TestCountRefusesBeforeSizing: a count beyond its bound, or one whose
// elements cannot fit the bytes left, returns 0 and fails the reader, so
// the caller sizes nothing from it.
func TestCountRefusesBeforeSizing(t *testing.T) {
	for _, c := range []struct {
		in    []byte
		limit uint64
	}{
		{[]byte{0xff, 0xff, 0xff, 0xff}, math.MaxUint64}, // 2^32-1 entries, no bytes
		{[]byte{3, 0, 0, 0, 1, 2, 3, 4, 5}, 2},           // beyond the bound
		{[]byte{3, 0, 0, 0, 1, 2, 3, 4, 5}, 3},           // 3 entries of 2 bytes in 5
	} {
		r := NewReader(c.in)
		if n := r.Count("entries", c.limit, 2); n != 0 || r.Err() == nil {
			t.Errorf("Count over %x (bound %d) = %d, err %v", c.in, c.limit, n, r.Err())
		}
	}
}

// FuzzReaderModel is runModel over arbitrary inputs and call sequences: no
// input panics the reader or takes it away from the model.
func FuzzReaderModel(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 7, 7, 7, 7}, []byte{5, 9, 1, 0, 0, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{5, 8, 3, 0, 6, 0, 4, 0})
	f.Fuzz(runModel)
}
