package shard

import (
	"bytes"
	"testing"

	"palermo/internal/backend/wal"
	"palermo/internal/crypt"
	"palermo/internal/otree"
	"palermo/internal/rng"
	"palermo/internal/stash"
)

// served builds shard 0 of 1 over blocks on the memory engine and serves
// ops random reads and writes, so its posmap, stash and buckets are all
// populated.
func served(t testing.TB, blocks uint64, ops int) *Shard {
	t.Helper()
	s, err := New(0, 1, blocks, testKey, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for i := 0; i < ops; i++ {
		local := r.Uint64n(blocks)
		if r.Intn(2) == 0 {
			if _, err := s.Read(local); err != nil {
				t.Fatal(err)
			}
		} else if err := s.Write(local, bytes.Repeat([]byte{byte(i)}, BlockBytes)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestStateLengthIgnoresLeaves: the plaintext length is a function of
// entry counts, never of a leaf — moving every posmap and stash leaf
// changes the bytes and keeps the length.
func TestStateLengthIgnoresLeaves(t *testing.T) {
	s := served(t, 1<<10, 3000)
	for local := uint64(0); s.engine.StashLen(0) == 0; local++ { // stop between evictions
		if _, err := s.Read(local); err != nil {
			t.Fatal(err)
		}
	}
	before := s.appendState(nil, s.sealer.Epoch())
	pm, stashed := s.engine.Posmap(), 0
	for l := 0; l < pm.Levels(); l++ {
		leaves := s.engine.Space(l).Geo.NumLeaves()
		// The map is written dense, so every index moves: an assigned
		// leaf to the next one, an unassigned entry to a leaf.
		for idx := uint64(0); idx < pm.Blocks(l); idx++ {
			pm.SetLeaf(l, idx, (pm.Leaf(l, idx)+1)%leaves)
		}
		st := s.engine.Space(l).Stash
		var ids []otree.BlockID
		st.ForEach(func(e stash.Entry) { ids = append(ids, e.ID) })
		for _, id := range ids {
			e, _ := st.Get(id)
			st.Remap(id, (e.Leaf+1)%leaves)
		}
		stashed += len(ids)
	}
	if stashed == 0 {
		t.Fatal("no stash entries to move: the test proves nothing about stash leaves")
	}
	after := s.appendState(nil, s.sealer.Epoch())
	if bytes.Equal(before, after) {
		t.Fatal("moving every leaf left the plaintext unchanged")
	}
	if len(after) != len(before) {
		t.Fatalf("moving leaves changed the plaintext length: %d -> %d bytes", len(before), len(after))
	}
}

// TestStateBytesDeterministic: two shards that served the same operations
// encode byte-identical plaintext.
func TestStateBytesDeterministic(t *testing.T) {
	a := served(t, 1<<10, 2000).appendState(nil, 7)
	b := served(t, 1<<10, 2000).appendState(nil, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("identical shards encode different plaintext")
	}
}

// TestStateWithinBound: a served shard's plaintext stays within
// MaxStateBytes, and MaxSealableBlocks is the largest capacity whose bound
// fits one sealed blob.
func TestStateWithinBound(t *testing.T) {
	const blocks = 1 << 10
	bound, err := MaxStateBytes(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(served(t, blocks, 3000).appendState(nil, 1)); uint64(n) > bound {
		t.Fatalf("a served shard of %d blocks encodes %d bytes, beyond its bound %d", blocks, n, bound)
	}
	limit := MaxSealableBlocks()
	at, err := MaxStateBytes(limit)
	if err != nil {
		t.Fatal(err)
	}
	past, err := MaxStateBytes(limit + 1)
	if err != nil {
		t.Fatal(err)
	}
	if at > crypt.MaxBlobBytes || past <= crypt.MaxBlobBytes {
		t.Fatalf("MaxSealableBlocks = %d: bound %d there, %d one block more, limit %d", limit, at, past, crypt.MaxBlobBytes)
	}
	if limit < 1<<23 || limit >= 1<<24 {
		t.Fatalf("MaxSealableBlocks = %d, want between 2^23 and 2^24", limit)
	}
}

// TestCheckpointAllocs: a checkpoint of a populated 2^15-block WAL shard —
// encode, seal, snapshot and log reset — allocates a bounded handful of
// objects, not one per posmap entry or bucket.
func TestCheckpointAllocs(t *testing.T) {
	const blocks = 1 << 15
	be, err := wal.Open(t.TempDir(), wal.Options{Capacity: blocks})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(0, 1, blocks, testKey, 5, be)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetCheckpointEvery(0)
	locals, data := seqWrites(0, blocks)
	writeMany(s, locals, data)
	for i := uint64(0); i < blocks; i += 7 {
		if _, err := s.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(3, func() {
		if err := s.checkpoint(); err != nil {
			t.Fatal(err)
		}
	}); n > 64 {
		t.Errorf("a checkpoint of a %d-block WAL shard allocates %.0f times, want at most 64", blocks, n)
	}
}

// FuzzShardState feeds the binary checkpoint decoder hostile plaintext,
// seeded from a served shard's: every input is refused with an error or
// accepted, none panics, and an accepted one re-encodes to its own bytes.
func FuzzShardState(f *testing.F) {
	const blocks = 1 << 6
	s := served(f, blocks, 150)
	f.Add(s.appendState(nil, s.sealer.Epoch()))
	fresh := func(t testing.TB) *Shard {
		sh, err := New(0, 1, blocks, testKey, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	f.Add(fresh(f).appendState(nil, 0))
	f.Fuzz(func(t *testing.T, plain []byte) {
		sh := fresh(t)
		if sh.loadState(plain) != nil {
			return
		}
		if got := sh.appendState(nil, sh.sealer.Epoch()); !bytes.Equal(got, plain) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(plain), len(got))
		}
	})
}
