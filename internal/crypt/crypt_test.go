package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

var key = []byte("0123456789abcdef")

func TestSealOpenRoundTrip(t *testing.T) {
	s, err := NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := bytes.Repeat([]byte{0xAB}, BlockBytes)
	ct, epoch, err := s.Seal(42, pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	got, err := s.Open(42, epoch, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("round trip failed")
	}
}

func TestFreshness(t *testing.T) {
	s, _ := NewSealer(key)
	pt := make([]byte, BlockBytes)
	c1, _, _ := s.Seal(7, pt)
	c2, _, _ := s.Seal(7, pt)
	if bytes.Equal(c1, c2) {
		t.Fatal("re-sealing the same block must produce fresh ciphertext")
	}
}

func TestWrongEpochGarbles(t *testing.T) {
	s, _ := NewSealer(key)
	pt := bytes.Repeat([]byte{1}, BlockBytes)
	ct, epoch, _ := s.Seal(7, pt)
	got, _ := s.Open(7, epoch+1, ct)
	if bytes.Equal(got, pt) {
		t.Fatal("wrong epoch must not decrypt")
	}
}

func TestBadSizes(t *testing.T) {
	s, _ := NewSealer(key)
	if _, _, err := s.Seal(0, make([]byte, 32)); err == nil {
		t.Fatal("short plaintext must error")
	}
	if _, err := s.Open(0, 1, make([]byte, 32)); err == nil {
		t.Fatal("short ciphertext must error")
	}
	if _, err := NewSealer([]byte("short")); err == nil {
		t.Fatal("bad key must error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	s, _ := NewSealer(key)
	f := func(addr uint64, data [BlockBytes]byte) bool {
		ct, epoch, err := s.Seal(addr, data[:])
		if err != nil {
			return false
		}
		got, err := s.Open(addr, epoch, ct)
		return err == nil && bytes.Equal(got, data[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockTransformMatchesCTR pins the hand-rolled 64-byte keystream to
// cipher.NewCTR over the same IV, which is what every sealed block on disk
// was written with. The IV's last byte is the epoch's top byte, so epochs
// from 0xFD.. up carry out of it within four blocks, and all-ones epochs
// carry on into the address half.
func TestBlockTransformMatchesCTR(t *testing.T) {
	s, err := NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	block, _ := aes.NewCipher(key)
	r := rand.New(rand.NewSource(7))
	type iv struct{ addr, epoch uint64 }
	cases := []iv{
		{0, 0}, {1, 1},
		{0, ^uint64(0)}, {^uint64(0), ^uint64(0)}, {0xFF00000000000000, ^uint64(0)},
		{^uint64(0), ^uint64(0) - 2}, {42, 0xFFFFFFFFFFFFFFFD},
	}
	for top := uint64(0xFD); top <= 0xFF; top++ {
		for i := 0; i < 50; i++ {
			cases = append(cases, iv{r.Uint64(), top<<56 | r.Uint64()>>8})
			cases = append(cases, iv{r.Uint64(), top<<56 | 0x00FFFFFFFFFFFFFF})
		}
	}
	for i := 0; i < 500; i++ {
		cases = append(cases, iv{r.Uint64(), r.Uint64()})
	}
	in := make([]byte, BlockBytes)
	want := make([]byte, BlockBytes)
	for _, c := range cases {
		r.Read(in)
		var ivb [aes.BlockSize]byte
		binary.LittleEndian.PutUint64(ivb[0:8], c.addr)
		binary.LittleEndian.PutUint64(ivb[8:16], c.epoch)
		cipher.NewCTR(block, ivb[:]).XORKeyStream(want, in)
		s.SetEpoch(c.epoch - 1)
		sealed, epoch, err := s.Seal(c.addr, in)
		if err != nil || epoch != c.epoch {
			t.Fatalf("Seal at epoch %#x: epoch %#x, %v", c.epoch, epoch, err)
		}
		opened, err := s.Open(c.addr, c.epoch, in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sealed, want) || !bytes.Equal(opened, want) {
			t.Fatalf("addr %#x epoch %#x: block transform diverged from cipher.NewCTR", c.addr, c.epoch)
		}
		if c.epoch < 1<<40 {
			if blob := s.Blob(c.addr, c.epoch, in); !bytes.Equal(blob, want) {
				t.Fatalf("addr %#x epoch %#x: Blob diverged from the block transform", c.addr, c.epoch)
			}
			buf := bytes.Clone(in)
			if s.BlobInPlace(c.addr, c.epoch, buf); !bytes.Equal(buf, want) {
				t.Fatalf("addr %#x epoch %#x: BlobInPlace diverged from the block transform", c.addr, c.epoch)
			}
		}
		if cap(sealed) != BlockBytes {
			t.Fatalf("sealed block exposes %d bytes of capacity, want %d", cap(sealed), BlockBytes)
		}
	}
}

// TestSealOpenAllocs: a seal or an open allocates its output and nothing
// else.
func TestSealOpenAllocs(t *testing.T) {
	s, _ := NewSealer(key)
	pt := bytes.Repeat([]byte{0xA5}, BlockBytes)
	ct, epoch, _ := s.Seal(3, pt)
	if n := testing.AllocsPerRun(1000, func() { s.Seal(3, pt) }); n != 1 {
		t.Errorf("Seal allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Open(3, epoch, ct) }); n != 1 {
		t.Errorf("Open allocates %.0f times, want 1", n)
	}
}

// TestSealIntoMatchesSeal: sealing into caller-owned bytes is Seal — same
// counter, same ciphertext for the same (addr, epoch) — minus the
// allocation, and it refuses a destination that is not one block.
func TestSealIntoMatchesSeal(t *testing.T) {
	a, _ := NewSealer(key)
	b, _ := NewSealer(key)
	dst := make([]byte, BlockBytes)
	for i := 0; i < 50; i++ {
		pt := bytes.Repeat([]byte{byte(i)}, BlockBytes)
		want, wantEpoch, err := a.Seal(uint64(i*7), pt)
		if err != nil {
			t.Fatal(err)
		}
		epoch, err := b.SealInto(dst, uint64(i*7), pt)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != wantEpoch || !bytes.Equal(dst, want) {
			t.Fatalf("seal %d: SealInto gave epoch %d, Seal %d; ciphertexts equal: %v", i, epoch, wantEpoch, bytes.Equal(dst, want))
		}
	}
	pt := make([]byte, BlockBytes)
	before := b.Epoch()
	if _, err := b.SealInto(make([]byte, BlockBytes-1), 0, pt); err == nil {
		t.Fatal("short destination must error")
	}
	if _, err := b.SealInto(dst, 0, pt[:32]); err == nil {
		t.Fatal("short plaintext must error")
	}
	if b.Epoch() != before {
		t.Fatal("a refused seal consumed an epoch")
	}
	if n := testing.AllocsPerRun(1000, func() { b.SealInto(dst, 3, pt) }); n != 0 {
		t.Errorf("SealInto allocates %.0f times, want 0", n)
	}
}
