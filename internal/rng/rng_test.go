package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	f := func(seed uint64, n uint32) bool {
		if n == 0 {
			return true
		}
		r := New(seed)
		for i := 0; i < 50; i++ {
			if r.Uint64n(uint64(n)) >= uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(7)
	const n, draws = 16, 160000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(3)
	z := NewZipf(r, 1000, 0.99)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(5)
	const n = 10000
	z := NewZipf(r, n, 0.99)
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be sampled far more often than the uniform rate, and the
	// top-100 ranks must hold a large share of the mass.
	if counts[0] < draws/n*20 {
		t.Fatalf("rank-0 count %d not skewed (uniform would be %d)", counts[0], draws/n)
	}
	top := 0
	for k, c := range counts {
		if k < 100 {
			top += c
		}
	}
	if float64(top)/draws < 0.30 {
		t.Fatalf("top-100 share = %f, want >= 0.30 for theta=0.99", float64(top)/draws)
	}
}

func TestZipfLowSkewIsFlatter(t *testing.T) {
	r := New(11)
	const n = 1000
	zHi := NewZipf(New(11), n, 1.2)
	zLo := NewZipf(r, n, 0.4)
	hi0, lo0 := 0, 0
	for i := 0; i < 100000; i++ {
		if zHi.Next() == 0 {
			hi0++
		}
		if zLo.Next() == 0 {
			lo0++
		}
	}
	if hi0 <= lo0 {
		t.Fatalf("higher theta should concentrate rank 0: hi=%d lo=%d", hi0, lo0)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipf(b *testing.B) {
	z := NewZipf(New(1), 1<<24, 0.99)
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
