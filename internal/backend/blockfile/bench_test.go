package blockfile

import (
	"bytes"
	"fmt"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/crypt"
)

// BenchmarkBlockfilePutMany measures the paged durable write path: one
// 512-byte slot pwrite per block (consecutive locals coalesced into
// vectored writes) plus a 20-byte metadata record, synced every
// GroupCommit records. Comparable point for BenchmarkWALAppend's
// groupcommit sweep (EXPERIMENTS.md records gc=32).
func BenchmarkBlockfilePutMany(b *testing.B) {
	payload := bytes.Repeat([]byte{0xA5}, crypt.BlockBytes)
	const batch = 8 // one Ring ORAM path's worth of evictions
	for _, gc := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("groupcommit=%d", gc), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{GroupCommit: gc})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			ops := make([]backend.PutOp, batch)
			b.SetBytes(batch * SlotBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := uint64(i*batch) % 4096
				for j := range ops {
					ops[j] = backend.PutOp{
						Local: base + uint64(j),
						Sb:    backend.Sealed{Ct: payload, Epoch: uint64(i*batch+j) + 1},
					}
				}
				if err := w.PutMany(ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockfilePut is the scalar point, directly comparable to
// BenchmarkWALAppend record for record.
func BenchmarkBlockfilePut(b *testing.B) {
	payload := bytes.Repeat([]byte{0xA5}, crypt.BlockBytes)
	for _, gc := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("groupcommit=%d", gc), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{GroupCommit: gc})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(SlotBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Put(uint64(i)%4096, backend.Sealed{Ct: payload, Epoch: uint64(i) + 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockfileGet measures the read a shard's Read issues: one
// slot of a populated, resident file, copied out of the mapping on Linux
// and read by one pread elsewhere. Every slot is read once before the
// timer starts, so the mapping's first-touch page faults are not timed.
func BenchmarkBlockfileGet(b *testing.B) {
	payload := bytes.Repeat([]byte{0xA5}, crypt.BlockBytes)
	w, err := Open(b.TempDir(), Options{GroupCommit: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	for i := uint64(0); i < 4096; i++ {
		if err := w.Put(i, backend.Sealed{Ct: payload, Epoch: i + 1}); err != nil {
			b.Fatal(err)
		}
	}
	for i := uint64(0); i < 4096; i++ {
		w.Get(i)
	}
	b.SetBytes(crypt.BlockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		getSink, _ = w.Get(uint64(i*997) % 4096)
	}
}

var getSink backend.Sealed

// BenchmarkBlockfileGetMany measures the vectored read path over a
// populated file, alternating runs of consecutive ids and scattered ids.
func BenchmarkBlockfileGetMany(b *testing.B) {
	payload := bytes.Repeat([]byte{0xA5}, crypt.BlockBytes)
	w, err := Open(b.TempDir(), Options{GroupCommit: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	for i := uint64(0); i < 4096; i++ {
		if err := w.Put(i, backend.Sealed{Ct: payload, Epoch: i + 1}); err != nil {
			b.Fatal(err)
		}
	}
	const batch = 16
	locals := make([]uint64, batch)
	out := make([]backend.Sealed, batch)
	ok := make([]bool, batch)
	b.SetBytes(batch * SlotBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i*7) % 2048
		for j := range locals {
			if j%2 == 0 {
				locals[j] = base + uint64(j) // run half: coalesces
			} else {
				locals[j] = (base*31 + uint64(j)*997) % 4096 // scatter half
			}
		}
		w.GetMany(locals, out, ok)
	}
}
