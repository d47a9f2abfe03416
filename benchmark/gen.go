package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// The generator: every random choice the benchmark makes comes from the
// run's seed through these streams. The stores and servers under test see
// only the requests generated here.

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// stream derives an independent stream for one purpose ("closed", "paced",
// "ladder", ...) and one caller from the run seed.
func stream(seed uint64, purpose string, caller int) *rng {
	h := seed
	for _, c := range []byte(purpose) {
		h = mix(h ^ uint64(c))
	}
	return &rng{s: mix(h ^ uint64(caller+1)<<32)}
}

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta, by the
// constant-time method of Gray et al. that YCSB uses.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
	half                     float64 // 0.5^theta
}

func newZipf(n uint64, theta float64) *zipf {
	var zetan float64
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half: math.Pow(0.5, theta),
	}
}

func (z *zipf) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+z.half:
		return 1
	}
	return uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// request is one API call: a single-block Read or Write, or a ReadBatch.
type request struct {
	write bool
	ids   []uint64
}

// ops is the number of 64-byte block operations the request carries.
func (q request) ops() int { return len(q.ids) }

// reqGen produces one caller's request stream for a workload. A caller
// writes only ids congruent to its index modulo the caller count, so every
// id has one writer and its versions are totally ordered; reads go anywhere.
type reqGen struct {
	wl       *workload
	r        *rng
	z        *zipf
	blocks   uint64
	scramble uint64 // odd multiplier spreading Zipf ranks over the id space
	caller   uint64
	callers  uint64
}

func newReqGen(wl *workload, blocks uint64, z *zipf, seed uint64, purpose string, caller, callers int) *reqGen {
	return &reqGen{
		wl: wl, r: stream(seed, purpose, caller), z: z, blocks: blocks,
		scramble: mix(seed)<<1 | 1, caller: uint64(caller), callers: uint64(callers),
	}
}

func (g *reqGen) id() uint64 {
	if g.wl.Zipf {
		// blocks is a power of two, so an odd multiplier permutes the ids.
		return (g.z.rank(g.r) * g.scramble) & (g.blocks - 1)
	}
	return g.r.next() % g.blocks
}

// next fills q, reusing its id slice.
func (g *reqGen) next(q *request) {
	q.ids = q.ids[:0]
	q.write = g.wl.Batch == 1 && g.r.float() < g.wl.WriteShare
	for i := 0; i < g.wl.Batch; i++ {
		q.ids = append(q.ids, g.id())
	}
	if q.write {
		id := q.ids[0]
		q.ids[0] = id - id%g.callers + g.caller
		if q.ids[0] >= g.blocks {
			q.ids[0] -= g.callers
		}
	}
}

// blockSize is palermo.BlockSize, restated so payloads need no import.
const blockSize = 64

// payload writes the self-describing content of (id, version) into dst:
// id, version, 40 bytes derived from both, and a checksum over the rest.
func payload(dst []byte, id, version uint64) {
	binary.LittleEndian.PutUint64(dst[0:], id)
	binary.LittleEndian.PutUint64(dst[8:], version)
	x := mix(id ^ version<<40)
	for off := 16; off < 56; off += 8 {
		x = mix(x + uint64(off))
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
	binary.LittleEndian.PutUint64(dst[56:], checksum(dst[:56]))
}

// payloadVersion is the version a payload block carries.
func payloadVersion(block []byte) uint64 { return binary.LittleEndian.Uint64(block[8:]) }

func checksum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for off := 0; off < len(b); off += 8 {
		h = mix(h ^ binary.LittleEndian.Uint64(b[off:]))
	}
	return h
}

// versions is the benchmark's record of what the store must hold: for each
// id, the last version whose write was acknowledged. Prefill writes
// version 1 everywhere.
type versions []atomic.Uint64

// check verifies a block read for id: it is a payload of this id, its
// checksum holds, and its version is neither older than the one
// acknowledged before the read was sent (floor) nor newer than the one a
// write still in flight after it returned could have stored.
func (v versions) check(id uint64, block []byte, floor uint64) error {
	if len(block) != blockSize {
		return fmt.Errorf("block %d: %d bytes", id, len(block))
	}
	if got := binary.LittleEndian.Uint64(block[0:]); got != id {
		return fmt.Errorf("block %d: holds id %d", id, got)
	}
	if binary.LittleEndian.Uint64(block[56:]) != checksum(block[:56]) {
		return fmt.Errorf("block %d: checksum mismatch", id)
	}
	ver := payloadVersion(block)
	if ceil := v[id].Load() + 1; ver < floor || ver > ceil {
		return fmt.Errorf("block %d: version %d outside [%d, %d]", id, ver, floor, ceil)
	}
	return nil
}
