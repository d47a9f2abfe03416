// Cross-backend vector property test: GetMany/PutMany must mean exactly
// "N scalar Gets/Puts" on every implementation — the memory slab, the WAL
// log, the blockfile slot file, and the loop adapter backend.Vector wraps
// around scalar-only backends. Duplicate and aliasing locals inside one
// vector are the sharp edge: a run-coalescing implementation (blockfile)
// or a batch-framing one (wal) must still give last-write-wins within a
// PutMany and position-wise consistent answers from a GetMany.
package backend_test

import (
	"bytes"
	"fmt"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/backend/blockfile"
	"palermo/internal/backend/memory"
	"palermo/internal/backend/wal"
	"palermo/internal/rng"
)

// scalarOnly hides a backend's native vector methods, so backend.Vector
// must fall back to the per-block loop adapter.
type scalarOnly struct{ backend.Backend }

// vecCT builds the deterministic 64-byte ciphertext stand-in for a
// (local, epoch) pair, so value comparisons across backends are exact.
func vecCT(local, epoch uint64) []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(local*7 + epoch*31 + uint64(i))
	}
	return b
}

// vecScript is the shared deterministic op sequence: PutMany vectors with
// intra-vector duplicates (last-wins) interleaved with scalar Puts,
// epochs strictly increasing in submission order like a real sealer.
type vecPut struct {
	vector bool
	ops    []backend.PutOp
}

func vecScript() (puts []vecPut, queries [][]uint64) {
	const writtenLocals = 96 // queries probe up to 128: a tail of absent ids
	r := rng.New(20250807)
	epoch := uint64(0)
	for round := 0; round < 40; round++ {
		if r.Uint64n(4) == 0 { // scalar put
			epoch++
			local := r.Uint64n(writtenLocals)
			puts = append(puts, vecPut{ops: []backend.PutOp{
				{Local: local, Sb: backend.Sealed{Ct: vecCT(local, epoch), Epoch: epoch}},
			}})
			continue
		}
		n := 1 + int(r.Uint64n(8))
		ops := make([]backend.PutOp, n)
		for i := range ops {
			var local uint64
			if i > 0 && r.Uint64n(3) == 0 {
				local = ops[i-1].Local // intra-vector duplicate: last-wins
			} else {
				local = r.Uint64n(writtenLocals)
			}
			epoch++
			ops[i] = backend.PutOp{Local: local, Sb: backend.Sealed{Ct: vecCT(local, epoch), Epoch: epoch}}
		}
		puts = append(puts, vecPut{vector: true, ops: ops})
	}
	for q := 0; q < 60; q++ {
		locals := make([]uint64, 1+r.Uint64n(12))
		for i := range locals {
			if i > 0 && r.Uint64n(3) == 0 {
				locals[i] = locals[i-1] // aliasing query positions
			} else {
				locals[i] = r.Uint64n(128) // includes never-written ids
			}
		}
		queries = append(queries, locals)
	}
	return puts, queries
}

func TestGetManyDuplicateAliasingConsistency(t *testing.T) {
	flavors := []struct {
		name string
		open func(t *testing.T) backend.VectorBackend
	}{
		{"memory", func(t *testing.T) backend.VectorBackend {
			return backend.Vector(memory.New())
		}},
		{"memory-loop", func(t *testing.T) backend.VectorBackend {
			return backend.Vector(scalarOnly{memory.New()})
		}},
		{"wal", func(t *testing.T) backend.VectorBackend {
			b, err := wal.Open(t.TempDir(), wal.Options{GroupCommit: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return backend.Vector(b)
		}},
		{"wal-loop", func(t *testing.T) backend.VectorBackend {
			b, err := wal.Open(t.TempDir(), wal.Options{GroupCommit: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return backend.Vector(scalarOnly{b})
		}},
		{"blockfile", func(t *testing.T) backend.VectorBackend {
			b, err := blockfile.Open(t.TempDir(), blockfile.Options{GroupCommit: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return backend.Vector(b)
		}},
		{"blockfile-loop", func(t *testing.T) backend.VectorBackend {
			b, err := blockfile.Open(t.TempDir(), blockfile.Options{GroupCommit: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return backend.Vector(scalarOnly{b})
		}},
	}

	puts, queries := vecScript()

	// digests[flavor] is the flavor's full answer transcript; all flavors
	// must produce the same one.
	digests := make([]string, len(flavors))
	for fi, fl := range flavors {
		t.Run(fl.name, func(t *testing.T) {
			vb := fl.open(t)
			expect := make(map[uint64]backend.PutOp) // model: the last put of each local wins
			for _, p := range puts {
				if p.vector {
					if err := vb.PutMany(p.ops); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := vb.Put(p.ops[0].Local, p.ops[0].Sb); err != nil {
						t.Fatal(err)
					}
				}
				for _, op := range p.ops {
					expect[op.Local] = op
				}
			}
			if got, want := vb.Len(), len(expect); got != want {
				t.Fatalf("Len() = %d, want %d distinct locals", got, want)
			}

			var digest bytes.Buffer
			for qi, locals := range queries {
				out := make([]backend.Sealed, len(locals))
				ok := make([]bool, len(locals))
				vb.GetMany(locals, out, ok)
				for i, local := range locals {
					// Position-wise agreement with the model and with the
					// scalar path.
					last, present := expect[local]
					want := last.Sb
					if ok[i] != present {
						t.Fatalf("query %d pos %d (local %d): ok=%v, model present=%v", qi, i, local, ok[i], present)
					}
					sOut, sOK := vb.Get(local)
					if sOK != ok[i] {
						t.Fatalf("query %d pos %d (local %d): GetMany ok=%v but Get ok=%v", qi, i, local, ok[i], sOK)
					}
					if !present {
						continue
					}
					if out[i].Epoch != want.Epoch || !bytes.Equal(out[i].Ct, want.Ct) {
						t.Fatalf("query %d pos %d (local %d): GetMany returned epoch %d, want epoch %d (last-wins)",
							qi, i, local, out[i].Epoch, want.Epoch)
					}
					if sOut.Epoch != out[i].Epoch || !bytes.Equal(sOut.Ct, out[i].Ct) {
						t.Fatalf("query %d pos %d (local %d): GetMany and Get disagree", qi, i, local)
					}
					// Aliasing positions must answer identically.
					if i > 0 && locals[i-1] == local &&
						(out[i].Epoch != out[i-1].Epoch || !bytes.Equal(out[i].Ct, out[i-1].Ct)) {
						t.Fatalf("query %d: duplicate positions %d and %d (local %d) disagree", qi, i-1, i, local)
					}
					fmt.Fprintf(&digest, "%d:%d:%x ", local, out[i].Epoch, out[i].Ct[:8])
				}
			}
			digests[fi] = digest.String()
		})
	}
	for fi := 1; fi < len(flavors); fi++ {
		if digests[fi] == "" || digests[0] == "" {
			t.Fatal("a flavor subtest did not run")
		}
		if digests[fi] != digests[0] {
			t.Fatalf("%s answered differently than %s for the same script", flavors[fi].name, flavors[0].name)
		}
	}
}
