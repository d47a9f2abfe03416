package memory

import (
	"bytes"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/crypt"
	"palermo/internal/paged"
)

func ct(fill byte) []byte { return bytes.Repeat([]byte{fill}, crypt.BlockBytes) }

// TestOwnership is the Backend contract's ownership paragraph, on the
// engine every store starts with: Put copies, and a Get result is the
// backend's own bytes, good until the next Put of that id.
func TestOwnership(t *testing.T) {
	b := NewSized(64)
	buf := ct(1)
	if err := b.Put(5, backend.Sealed{Ct: buf, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	copy(buf, ct(2)) // the caller reseals into the same bytes
	if err := b.Put(6, backend.Sealed{Ct: buf, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	five, ok := b.Get(5)
	if !ok || five.Epoch != 1 || !bytes.Equal(five.Ct, ct(1)) {
		t.Fatalf("block 5 = %+v ok=%v after its caller reused the buffer, want the bytes as put", five, ok)
	}
	if err := b.PutMany([]backend.PutOp{{Local: 6, Sb: backend.Sealed{Ct: ct(3), Epoch: 3}}, {Local: 7, Sb: backend.Sealed{Ct: ct(4), Epoch: 4}}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(five.Ct, ct(1)) {
		t.Fatal("a Get result changed on puts of other ids")
	}
	if err := b.Put(5, backend.Sealed{Ct: ct(9), Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	if again, _ := b.Get(5); again.Epoch != 5 || !bytes.Equal(again.Ct, ct(9)) {
		t.Fatalf("block 5 = %+v after its overwrite", again)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if _, ok := b.Get(8); ok {
		t.Fatal("Get of a never-written id reported a block")
	}
}

// TestPutManyRefusesWhole: a vector with a member the backend cannot store
// stores none of its members.
func TestPutManyRefusesWhole(t *testing.T) {
	b := NewSized(8)
	for name, bad := range map[string]backend.PutOp{
		"short ciphertext":   {Local: 2, Sb: backend.Sealed{Ct: []byte("short"), Epoch: 2}},
		"id beyond capacity": {Local: 8, Sb: backend.Sealed{Ct: ct(2), Epoch: 2}},
	} {
		err := b.PutMany([]backend.PutOp{{Local: 1, Sb: backend.Sealed{Ct: ct(1), Epoch: 1}}, bad})
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if b.Len() != 0 {
			t.Fatalf("%s: the refused vector left %d blocks behind", name, b.Len())
		}
		if err := b.Put(bad.Local, bad.Sb); err == nil {
			t.Fatalf("%s: accepted by Put", name)
		}
	}
}

// TestUnsizedAcceptsAServingShard: New() does not know its capacity and
// must still take every id of the largest shard the engine indexes
// directly — and nothing that would make a direct index explode.
func TestUnsizedAcceptsAServingShard(t *testing.T) {
	b := New()
	if err := b.Put(paged.DirectKeys-1, backend.Sealed{Ct: ct(1), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(1<<40, backend.Sealed{Ct: ct(1), Epoch: 1}); err == nil {
		t.Fatal("an id far beyond any direct index was accepted")
	}
	if b.Durable() {
		t.Fatal("memory claims to be durable")
	}
	if meta, _, tail := b.Recovered(); meta != nil || tail != nil {
		t.Fatal("memory recovered state")
	}
}

// TestPutAllocatesNothing: steady-state overwrites copy into place.
func TestPutAllocatesNothing(t *testing.T) {
	b := NewSized(1 << 10)
	sb := backend.Sealed{Ct: ct(7), Epoch: 1}
	for id := uint64(0); id < 1<<10; id++ {
		if err := b.Put(id, sb); err != nil {
			t.Fatal(err)
		}
	}
	id := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		id = (id + 17) % (1 << 10)
		sb.Epoch++
		if err := b.Put(id, sb); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Get(id); !ok {
			t.Fatal("lost a block")
		}
	}); allocs != 0 {
		t.Fatalf("Put+Get of a stored id allocates %.1f times", allocs)
	}
}
