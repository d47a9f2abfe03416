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
