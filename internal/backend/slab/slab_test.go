package slab

import (
	"bytes"
	"testing"
	"unsafe"

	"palermo/internal/backend"
	"palermo/internal/crypt"
	"palermo/internal/paged"
	"palermo/internal/rng"
)

// Two capacities, one on each side of paged.New's choice: the ids a script
// names are spread over [0, capacity) so the sparse one really is sparse.
var shapes = []struct {
	name     string
	capacity uint64
	stride   uint64 // id = 16-bit script value × stride
}{
	{"direct", 1 << 16, 1},
	{"sparse", paged.DirectKeys << 2, 61},
}

type modelBlock struct {
	ct    [crypt.BlockBytes]byte
	epoch uint64
}

// runScript interprets script as operations on a Slab and on a plain map,
// and fails on the first answer that differs. An operation is an opcode
// byte and the bytes it needs; a script that ends mid-operation ends there.
//
//	0-2  Put(id, ct filled from the next byte, next epoch)   (overwrites included)
//	3    that Put for a run of 2×(fill+1) ids from id: a few bytes of
//	     script fill a chunk and start the next
//	4, 6 Get(id), keeping the result
//	5    GetMany of the next byte's low 3 bits + 1 ids
//	7    Put with a refused argument: nothing may change
//
// After every operation, Len agrees and every Get result ever kept still
// reads as the model's current value for its id — so it changed only when
// that id was Put, to exactly what was Put.
func runScript(t *testing.T, capacity, stride uint64, script []byte) {
	t.Helper()
	s := New(capacity)
	model := map[uint64]*modelBlock{}
	kept := map[uint64][]byte{} // id -> a ciphertext Get returned, never refreshed
	epoch := uint64(0)

	next := func() (byte, bool) {
		if len(script) == 0 {
			return 0, false
		}
		b := script[0]
		script = script[1:]
		return b, true
	}
	nextID := func() (uint64, bool) {
		hi, ok1 := next()
		lo, ok2 := next()
		return (uint64(hi)<<8 | uint64(lo)) * stride, ok1 && ok2
	}
	check := func(op string, id uint64, sb backend.Sealed, ok bool) {
		want, present := model[id]
		if ok != present {
			t.Fatalf("%s(%d): ok=%v, model has it: %v", op, id, ok, present)
		}
		if present && (sb.Epoch != want.epoch || !bytes.Equal(sb.Ct, want.ct[:])) {
			t.Fatalf("%s(%d): epoch %d ct %x.., model epoch %d ct %x..", op, id, sb.Epoch, sb.Ct[:4], want.epoch, want.ct[:4])
		}
	}

	for {
		op, ok := next()
		if !ok {
			break
		}
		switch op & 7 {
		case 0, 1, 2, 3:
			id, ok1 := nextID()
			fill, ok2 := next()
			if !ok1 || !ok2 {
				return
			}
			run := uint64(1)
			if op&7 == 3 {
				run = 2 * (uint64(fill) + 1)
			}
			for ; run > 0 && id < capacity; run, id = run-1, id+stride {
				epoch++
				ct := bytes.Repeat([]byte{fill}, crypt.BlockBytes)
				ct[0] = byte(epoch) // two puts of one fill still differ
				if err := s.Put(id, backend.Sealed{Ct: ct, Epoch: epoch}); err != nil {
					t.Fatalf("Put(%d): %v", id, err)
				}
				m := &modelBlock{epoch: epoch}
				copy(m.ct[:], ct)
				model[id] = m
				clear(ct) // Put copied: the caller's bytes are the caller's again
			}
		case 4, 6:
			id, ok := nextID()
			if !ok {
				return
			}
			sb, found := s.Get(id)
			check("Get", id, sb, found)
			if _, have := kept[id]; found && !have && len(kept) < 64 {
				kept[id] = sb.Ct // every kept result is re-read after every operation: keep few
			}
		case 5:
			nb, ok := next()
			if !ok {
				return
			}
			ids := make([]uint64, nb&7+1)
			for i := range ids {
				if ids[i], ok = nextID(); !ok {
					return
				}
			}
			out, oks := make([]backend.Sealed, len(ids)), make([]bool, len(ids))
			s.GetMany(ids, out, oks)
			for i, id := range ids {
				check("GetMany", id, out[i], oks[i])
			}
		case 7:
			id, ok := nextID()
			if !ok {
				return
			}
			if err := s.Put(id, backend.Sealed{Ct: make([]byte, crypt.BlockBytes-1), Epoch: 1}); err == nil {
				t.Fatal("Put accepted a 63-byte ciphertext")
			}
			if err := s.Put(capacity+id, backend.Sealed{Ct: make([]byte, crypt.BlockBytes), Epoch: 1}); err == nil {
				t.Fatalf("Put accepted id %d beyond capacity %d", capacity+id, capacity)
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("Len = %d, model holds %d", s.Len(), len(model))
		}
		for id, ct := range kept {
			if !bytes.Equal(ct, model[id].ct[:]) {
				t.Fatalf("a kept Get(%d) result no longer reads as block %d's stored value", id, id)
			}
		}
	}
}

// randomScript draws n operations, each with exactly the operands runScript
// reads for it, over few enough ids that overwrites, hits and misses all
// occur and enough that the slab grows several chunks.
func randomScript(seed uint64, n int) []byte {
	r := rng.New(seed)
	var script []byte
	for i := 0; i < n; i++ {
		op := byte(r.Uint64n(8))
		if rare := r.Uint64n(100); rare == 2 {
			op = 3
		} else if op == 3 {
			op = 0 // a run is hundreds of puts: rare
		}
		id := func() { script = append(script, byte(r.Uint64n(6)), byte(r.Uint64())) } // 1536 ids
		script = append(script, op)
		switch op {
		case 0, 1, 2, 3:
			id()
			script = append(script, byte(r.Uint64()))
		case 4, 6, 7:
			id()
		case 5:
			n := byte(r.Uint64n(8))
			script = append(script, n)
			for i := byte(0); i <= n; i++ {
				id()
			}
		}
	}
	return script
}

// TestSlabMatchesMap is the model-based property test: random scripts at a
// direct and at a sparse capacity.
func TestSlabMatchesMap(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				runScript(t, sh.capacity, sh.stride, randomScript(seed, 10000))
			}
		})
	}
}

// FuzzSlabModel lets the fuzzer write the script — its first 256 bytes:
// the fuzzer minimizes every input that reaches new code, one execution per
// byte it tries to drop, and a short smoke run must not spend itself there.
func FuzzSlabModel(f *testing.F) {
	f.Add(randomScript(9, 12), false)
	f.Add(randomScript(9, 12), true)
	f.Add([]byte{0, 0, 1, 0xAA, 4, 0, 1, 3, 0, 0, 0xBB, 6, 7, 0, 1}, false)
	f.Fuzz(func(t *testing.T, script []byte, sparse bool) {
		sh := shapes[0]
		if sparse {
			sh = shapes[1]
		}
		runScript(t, sh.capacity, sh.stride, script[:min(len(script), 256)])
	})
}

// TestUnknownCapacityIsBounded: New(0) indexes directly, so it must refuse
// the ids that would make a direct table allocate a directory for them.
func TestUnknownCapacityIsBounded(t *testing.T) {
	s := New(0)
	ct := make([]byte, crypt.BlockBytes)
	if err := s.Put(paged.DirectKeys-1, backend.Sealed{Ct: ct, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{paged.DirectKeys, 1 << 40, ^uint64(0)} {
		if err := s.Put(id, backend.Sealed{Ct: ct, Epoch: 1}); err == nil {
			t.Fatalf("Put(%d) accepted on a slab of unknown capacity", id)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after one accepted put", s.Len())
	}
}

// TestChunkIsOneSizeClass pins the arithmetic the chunk length rests on:
// 18432 bytes is a size class of the Go allocator, so a chunk rounds up to
// nothing.
func TestChunkIsOneSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(chunk{}); got != 18432 {
		t.Fatalf("a chunk is %d bytes; the package comment promises the 18432-byte size class", got)
	}
}
