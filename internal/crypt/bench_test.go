package crypt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// BenchmarkSealUnseal measures one block's full crypto round trip — the
// per-access AES cost the serving path pays once per write (seal) and
// once per read (unseal). This is the single-core wall BENCH_engine.json
// sizes the crypto worker pool against.
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

// BenchmarkSealAtParallel measures the pure transform (SealAt) spread
// across worker goroutines — the upper bound of what a CryptoWorkers
// pool can recover from the single-core sealing wall.
func BenchmarkSealAtParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if workers > runtime.GOMAXPROCS(0) {
				b.Skipf("needs %d procs, have %d", workers, runtime.GOMAXPROCS(0))
			}
			s, err := NewSealer([]byte("0123456789abcdef"))
			if err != nil {
				b.Fatal(err)
			}
			pt := make([]byte, BlockBytes)
			b.ReportAllocs()
			b.SetBytes(BlockBytes)
			per := b.N / workers
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := uint64(w) << 32
					for i := 0; i < per; i++ {
						if _, err := s.SealAt(base+uint64(i), uint64(i+1), pt); err != nil {
							panic(err)
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkSealAtGOMAXPROCS is the honest-scaling variant of
// BenchmarkSealAtParallel: instead of fanning goroutines over whatever
// cores happen to be visible, each sub-benchmark pins GOMAXPROCS to the
// worker count, so the reported MB/s is what that many real cores
// deliver. On a 1-core runner every multi-proc point skips and the
// recorded "scaling" is the truthful flat line (the
// crypto_workers_effective_cap note in BENCH_engine.json); on wider
// machines the curve is the pool's genuine speedup ceiling.
func BenchmarkSealAtGOMAXPROCS(b *testing.B) {
	maxProcs := runtime.GOMAXPROCS(0)
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			if procs > maxProcs {
				b.Skipf("needs %d procs, have %d", procs, maxProcs)
			}
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			s, err := NewSealer([]byte("0123456789abcdef"))
			if err != nil {
				b.Fatal(err)
			}
			pt := make([]byte, BlockBytes)
			b.ReportAllocs()
			b.SetBytes(BlockBytes)
			per := b.N / procs
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < procs; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := uint64(w+8) << 32
					for i := 0; i < per; i++ {
						if _, err := s.SealAt(base+uint64(i), uint64(i+1), pt); err != nil {
							panic(err)
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
