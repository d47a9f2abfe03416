package main

import (
	"crypto/aes"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The reference server: how fast is this host right now?
//
// The reference host is a 2-vCPU virtual machine whose speed wanders with
// what its neighbours do: the same closed phase served 68 k and 130 k block
// operations a second within two minutes, with no steal time reported. A
// bound of a few percent on such numbers would reject every change, or
// none. So every timed phase is cut into rounds, a short burst of a fixed,
// frozen piece of work is timed before and after each round, and the
// round's timings are scaled by how fast that work ran against a nominal
// rate: a timed end-to-end metric reads as it would on the reference host
// at its nominal speed. In the experiment that decided this, the spread of
// 5-second medians over a two-minute run fell from 14 % raw to 4 % scaled
// on a calm host, and from 36 % to 11 % on a busy one.
//
// The work imitates what one block operation costs the store, so that the
// host's mood moves both alike, but shares no code with it: callers hand a
// request over a channel to one of two workers, which does dependent reads
// in a table and a map too big for the cache, encrypts a few AES blocks,
// and hands a reply back. It allocates nothing, so it does not disturb the
// allocation and collection counts taken around a phase. A change to the
// repository cannot make it faster or slower; only the host can.

// refNominal is the reference server's rate, in requests per second, that
// scaled metrics are expressed at: about what the reference host does when
// its neighbours are quiet.
const refNominal = 400000

const (
	refCallers = 8
	refWorkers = 2
	refTable   = 1 << 19 // 4 MB of uint64
	refMap     = 1 << 16
	refMisses  = 12 // dependent table-and-map reads per request
	refCiphers = 8  // AES blocks per request
)

type refReq struct {
	x     uint64
	reply chan uint64
}

type reference struct {
	table   []uint64
	m       map[uint64]uint64
	queues  [refWorkers]chan refReq
	workers sync.WaitGroup
	// heapMB is what the table and the map add to the live heap; heap_mb
	// is reported without it.
	heapMB float64
}

func newReference() *reference {
	before := liveHeapMB()
	r := &reference{table: make([]uint64, refTable), m: make(map[uint64]uint64, refMap)}
	for i := range r.table {
		r.table[i] = mix(uint64(i))
	}
	for i := uint64(0); i < refMap; i++ {
		r.m[i] = mix(^i)
	}
	r.heapMB = liveHeapMB() - before
	for w := range r.queues {
		r.queues[w] = make(chan refReq, refCallers)
		r.workers.Add(1)
		go r.work(r.queues[w])
	}
	return r
}

func (r *reference) work(q chan refReq) {
	defer r.workers.Done()
	blk, err := aes.NewCipher([]byte("reference-server"))
	if err != nil {
		panic(err) // a 16-byte key is always accepted
	}
	var in, out [aes.BlockSize]byte
	for rq := range q {
		x := rq.x
		for i := 0; i < refMisses; i++ {
			x = mix(x + r.table[x%refTable])
			x += r.m[x%refMap]
		}
		for i := 0; i < refCiphers; i++ {
			in[i%8] = byte(x >> (i % 8 * 8))
			blk.Encrypt(out[:], in[:])
			x += uint64(out[i%8])
		}
		rq.reply <- x
	}
}

// rate serves requests from refCallers closed-loop callers for d and
// returns requests per second.
func (r *reference) rate(d time.Duration) float64 {
	var n atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < refCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := mix(uint64(c + 1))
			reply := make(chan uint64, 1)
			var done int64
			for time.Since(t0) < d {
				x = mix(x)
				r.queues[x%refWorkers] <- refReq{x, reply}
				x = <-reply
				done++
			}
			n.Add(done)
		}()
	}
	wg.Wait()
	return float64(n.Load()) / time.Since(t0).Seconds()
}

// refExponent is how much of the reference server's slow-down the store
// shares. The reference is almost purely bound by memory latency, which is
// what the neighbours of the reference host disturb; the store also
// computes. Over 160 rounds of embed-mem and of kv-blockfile on a busy
// host, the store's rate went as the reference's rate to the power 0.6 to
// 0.7 (embed-mem) and 0.85 to 1 (kv-blockfile); scaling by the power 0.8
// left a run-to-run deviation of 4 to 5.5 % on both, against 13 and 22 %
// unscaled. A reference that computes more (64 AES blocks, 4 reads) was
// tried: its rate moved independently of the store's, and scaling by it
// made every spread worse.
const refExponent = 0.8

// speed is the factor timed metrics are scaled by: the reference server's
// rate over one burst of d, as a share of nominal, to the power
// refExponent.
func (r *reference) speed(d time.Duration) float64 {
	return math.Pow(r.rate(d)/refNominal, refExponent)
}

// close stops the workers and waits for them.
func (r *reference) close() {
	for _, q := range r.queues {
		close(q)
	}
	r.workers.Wait()
}
