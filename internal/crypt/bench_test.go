package crypt

import "testing"

// BenchmarkSealUnseal measures one block's full crypto round trip — the
// per-access AES cost the serving path pays once per write (seal) and
// once per read (unseal).
func BenchmarkSealUnseal(b *testing.B) {
	s, err := NewSealer([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]byte, BlockBytes)
	for i := range pt {
		pt[i] = byte(i)
	}
	b.ReportAllocs()
	b.SetBytes(2 * BlockBytes)
	for i := 0; i < b.N; i++ {
		ct, epoch, err := s.Seal(uint64(i), pt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Open(uint64(i), epoch, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeal and BenchmarkOpen split the round trip: each is one
// allocation (the output) and four AES blocks.
func BenchmarkSeal(b *testing.B) {
	s, _ := NewSealer([]byte("0123456789abcdef"))
	pt := make([]byte, BlockBytes)
	b.ReportAllocs()
	b.SetBytes(BlockBytes)
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Seal(uint64(i), pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	s, _ := NewSealer([]byte("0123456789abcdef"))
	ct, epoch, _ := s.Seal(9, make([]byte, BlockBytes))
	b.ReportAllocs()
	b.SetBytes(BlockBytes)
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(9, epoch, ct); err != nil {
			b.Fatal(err)
		}
	}
}
