package shard

import (
	"bytes"
	"reflect"
	"testing"

	"palermo/internal/backend/wal"
	"palermo/internal/rng"
)

// migratePayload is a deterministic 64-byte payload for (seed, id).
func migratePayload(seed, id uint64) []byte {
	r := rng.New(seed ^ 0x9e3779b97f4a7c15*(id+1))
	out := make([]byte, BlockBytes)
	for i := range out {
		out[i] = byte(r.Uint64n(256))
	}
	return out
}

// TestMigrateRoundTrip drives the full shard-level migration handoff —
// ExportBlocks + StartTee while writes keep landing, then StopTee +
// ExportMeta at the barrier, then ImportBlocks/RestoreMeta on a fresh
// shard — and demands the migrated shard continue the source's exact
// protocol history: byte-identical reads, element-wise identical leaf
// traces, and continued counters, against an unmigrated reference shard
// serving the same operation sequence with scalar writes. In the vector
// case the source and the target take every run of consecutive writes as
// one WriteMany: the tee must still capture each sealed write exactly once.
func TestMigrateRoundTrip(t *testing.T) {
	for _, vector := range []bool{false, true} {
		name := "scalar"
		if vector {
			name = "vector"
		}
		t.Run(name, func(t *testing.T) {
			const blocks, seed = 1 << 8, 17
			mk := func() *Shard {
				sh, err := New(1, 4, blocks, testKey, DeriveSeed(seed, 1), nil)
				if err != nil {
					t.Fatal(err)
				}
				sh.EnableTrace()
				return sh
			}
			ref, src := mk(), mk()
			// run applies n random ops to ref, writes one at a time, and to
			// sh, whose reads must agree — with each run of consecutive
			// writes as one vector in the vector case.
			run := func(sh *Shard, r *rng.Rand, paySeed uint64, n int) {
				t.Helper()
				var locals []uint64
				var pays [][]byte
				flush := func() {
					t.Helper()
					errs := make([]error, len(locals))
					sh.WriteMany(locals, pays, errs)
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
					locals, pays = nil, nil
				}
				for i := 0; i < n; i++ {
					local := r.Uint64n(blocks)
					if r.Intn(3) > 0 {
						pay := migratePayload(paySeed, local)
						if err := ref.Write(local, pay); err != nil {
							t.Fatal(err)
						}
						if vector {
							locals, pays = append(locals, local), append(pays, pay)
						} else if err := sh.Write(local, pay); err != nil {
							t.Fatal(err)
						}
						continue
					}
					flush()
					a, err := ref.Read(local)
					if err != nil {
						t.Fatal(err)
					}
					b, err := sh.Read(local)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("op %d: read of %d diverges from the reference", i, local)
					}
				}
				flush()
			}
			r := rng.New(99)
			randOps := func(n int) { run(src, r, seed, n) }

			// Prefix history on both shards.
			randOps(200)

			// Phase 1: snapshot the source while it keeps serving.
			snap, err := src.ExportBlocks()
			if err != nil {
				t.Fatal(err)
			}
			src.StartTee()
			randOps(120) // writes here reach the target only via the tee

			// Cutover barrier: capture the tail and the exact engine state.
			tail := src.StopTee()
			meta, metaEpoch, err := src.ExportMeta()
			if err != nil {
				t.Fatal(err)
			}
			// Keep ref's sealer counter aligned: ExportMeta consumed one blob
			// epoch on src, so mirror it on the reference shard.
			if _, _, err := ref.ExportMeta(); err != nil {
				t.Fatal(err)
			}

			// Rebuild on the "target": blocks first, tail over snapshot, then
			// the exact metadata.
			dst, err := New(1, 4, blocks, testKey, DeriveSeed(seed, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.ImportBlocks(snap); err != nil {
				t.Fatal(err)
			}
			if err := dst.ImportBlocks(tail); err != nil {
				t.Fatal(err)
			}
			if err := dst.RestoreMeta(meta, metaEpoch); err != nil {
				t.Fatal(err)
			}
			dst.EnableTrace()

			// The counters moved with the metadata.
			refSnap, dstSnap := ref.Snapshot(), dst.Snapshot()
			if refSnap.Reads != dstSnap.Reads || refSnap.Writes != dstSnap.Writes ||
				refSnap.DRAMReads != dstSnap.DRAMReads || refSnap.DRAMWrites != dstSnap.DRAMWrites {
				t.Fatalf("migrated counters diverge: ref %+v, dst %+v", refSnap, dstSnap)
			}

			// Suffix history: the migrated shard must continue the source's
			// protocol history bit-exactly.
			run(dst, rng.New(7), seed+1, 150)

			// Leaf traces: source prefix + target suffix == reference, element-wise.
			src.Retire()
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			if err := dst.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			got := &Trace{
				Ops:    append(append([]TraceOp(nil), src.Trace().Ops...), dst.Trace().Ops...),
				Leaves: append(append([]uint64(nil), src.Trace().Leaves...), dst.Trace().Leaves...),
			}
			if !reflect.DeepEqual(got.Ops, ref.Trace().Ops) {
				t.Fatalf("op traces diverge: %d+%d ops vs %d", len(src.Trace().Ops), len(dst.Trace().Ops), len(ref.Trace().Ops))
			}
			if !reflect.DeepEqual(got.Leaves, ref.Trace().Leaves) {
				t.Fatalf("leaf traces diverge across migration")
			}
		})
	}
}

// TestRetireSuppressesCheckpoint pins the IV-reuse guard: once a shard is
// retired, checkpoint (and therefore Close's farewell checkpoint) is a
// no-op, so the surrendered sealing-epoch domain is never re-entered.
func TestRetireSuppressesCheckpoint(t *testing.T) {
	be, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(0, 1, 1<<6, testKey, 3, be)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Write(1, migratePayload(1, 1)); err != nil {
		t.Fatal(err)
	}
	before := sh.sealer.Epoch()
	sh.Retire()
	if err := sh.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sh.sealer.Epoch(); got != before {
		t.Fatalf("retired shard advanced its sealing counter: %d -> %d", before, got)
	}
}
