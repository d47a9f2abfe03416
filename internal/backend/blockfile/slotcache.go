package blockfile

// The slot read cache keeps recently read slots resident in decoded form
// (ciphertext + epoch) so repeated tree-top and posmap-group reads skip
// the pread entirely — the RAM-sized-store gap between this engine and
// the WAL's full RAM mirror, closed for exactly the hot fraction a
// byte budget admits (DESIGN.md §14).
//
// Coherence is trivial because the backend is single-owner: every Get,
// Put, and Checkpoint runs on the shard's worker goroutine, so the cache
// needs no locks and can never race a write. Writes invalidate their
// slots (the next read refills from disk), checkpoints clear the cache
// outright, and a vectored run is served from the cache only when every
// present slot of the run is resident — a partial hit pays the full
// coalesced pread (which is one syscall regardless) and refills. Served
// bytes are therefore byte-identical at every budget, including zero.
//
// Eviction is CLOCK: a ref bit per entry, a sweeping hand that clears
// ref bits until it finds a cold entry. Each resident slot is charged
// SlotBytes against Options.CacheBytes — the budget reads as "how much
// of blocks.dat stays hot" — so a budget below one slot disables the
// cache. Hit/miss counters are atomics: the owner goroutine writes them,
// SlotCacheStats reads them from any goroutine (the FsyncStats pattern).

import (
	"sync/atomic"

	"palermo/internal/backend"
	"palermo/internal/crypt"
)

// slotEnt is one resident decoded slot.
type slotEnt struct {
	local uint64
	epoch uint64
	ct    [crypt.BlockBytes]byte
	used  bool
	ref   bool
}

// slotCache is the CLOCK-evicted resident-slot set. All methods except
// the stats loads are owner-goroutine only.
type slotCache struct {
	ents []slotEnt
	idx  map[uint64]int // local -> ents index
	hand int

	hits   atomic.Uint64
	misses atomic.Uint64
}

// newSlotCache sizes a cache for a byte budget, charging SlotBytes per
// resident slot. Budgets below one slot return nil (cache off).
func newSlotCache(cacheBytes int) *slotCache {
	n := cacheBytes / SlotBytes
	if n < 1 {
		return nil
	}
	return &slotCache{
		ents: make([]slotEnt, n),
		idx:  make(map[uint64]int, n),
	}
}

// get returns the resident copy of local, if any, marking it recently
// used. The returned ciphertext is a fresh allocation: callers up the
// stack own their Sealed buffers (Get documents the same contract).
func (c *slotCache) get(local uint64) (backend.Sealed, bool) {
	i, ok := c.idx[local]
	if !ok {
		return backend.Sealed{}, false
	}
	c.ents[i].ref = true
	return backend.Sealed{
		Ct:    append([]byte(nil), c.ents[i].ct[:]...),
		Epoch: c.ents[i].epoch,
	}, true
}

// has reports residency without touching the ref bit (the all-resident
// probe of a vectored run).
func (c *slotCache) has(local uint64) bool {
	_, ok := c.idx[local]
	return ok
}

// put makes local resident with the given decoded contents, evicting a
// cold entry if the budget is full.
func (c *slotCache) put(local, epoch uint64, ct []byte) {
	if i, ok := c.idx[local]; ok {
		c.ents[i].epoch = epoch
		copy(c.ents[i].ct[:], ct)
		c.ents[i].ref = true
		return
	}
	for {
		e := &c.ents[c.hand]
		if e.used && e.ref {
			e.ref = false
			c.hand = (c.hand + 1) % len(c.ents)
			continue
		}
		if e.used {
			delete(c.idx, e.local)
		}
		*e = slotEnt{local: local, epoch: epoch, used: true, ref: true}
		copy(e.ct[:], ct)
		c.idx[local] = c.hand
		c.hand = (c.hand + 1) % len(c.ents)
		return
	}
}

// invalidate drops local's resident copy, if any (a slot write).
func (c *slotCache) invalidate(local uint64) {
	if i, ok := c.idx[local]; ok {
		c.ents[i] = slotEnt{}
		delete(c.idx, local)
	}
}

// clear drops everything (a checkpoint).
func (c *slotCache) clear() {
	clear(c.ents)
	clear(c.idx)
	c.hand = 0
}
