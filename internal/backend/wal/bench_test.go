package wal

import (
	"bytes"
	"fmt"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/crypt"
)

// BenchmarkWALAppend measures the durable write path in isolation: one
// CRC-framed 84-byte record per Put, fsynced every GroupCommit records.
// The group-commit sweep shows the fsync amortization the serving path
// relies on (EXPERIMENTS.md records the gc=32 point).
func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte{0xA5}, crypt.BlockBytes)
	for _, gc := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("groupcommit=%d", gc), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{GroupCommit: gc})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(recordSize)
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

// BenchmarkWALGet measures a read of a stored block: from the snapshot
// file (every block checkpointed) and from recent (every block rewritten
// since). Every block is read once before the timer, so the snapshot's
// pages are resident.
func BenchmarkWALGet(b *testing.B) {
	const blocks = 1 << 14
	for _, from := range []string{"snapshot", "recent"} {
		b.Run("from="+from, func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{Capacity: blocks})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			payload := bytes.Repeat([]byte{0xA5}, crypt.BlockBytes)
			for id := uint64(0); id < blocks; id++ {
				if err := w.Put(id, backend.Sealed{Ct: payload, Epoch: id + 1}); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Checkpoint(nil, blocks+1); err != nil {
				b.Fatal(err)
			}
			for id := uint64(0); id < blocks; id++ {
				if from == "recent" {
					if err := w.Put(id, backend.Sealed{Ct: payload, Epoch: blocks + 2 + id}); err != nil {
						b.Fatal(err)
					}
				}
				w.Get(id)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb, ok := w.Get(uint64(i*7919) % blocks)
				if !ok || sb.Epoch == unreadable {
					b.Fatal("stored block unreadable")
				}
			}
		})
	}
}
