// Package loadgen is the workload driver for the sharded oblivious
// store service: N client goroutines issue a read/write mix (optionally
// Zipf-skewed, optionally batch-read) against any Target — an in-process
// palermo.ShardedStore, a remote palermo.Client or a
// palermo.ClusterClient — and the driver reports wall-clock plus the
// service's own stats. cmd/palermo-load drives every target through it,
// so the network tax is measured against an identical workload loop.
//
// There is one client loop. Every operation has an intended send time,
// and its latency is measured from that time:
//
//   - Closed loop (default): the intended time is now — each client
//     issues its next operation as soon as the previous one completes.
//     Throughput is self-clocking, but the model coordinates with the
//     server: when the service stalls, the clients stop sending, so the
//     stall shows up in at most Clients samples and the latency
//     percentiles lie (coordinated omission).
//   - Open loop (Options.Rate > 0): the intended times follow each
//     client's deterministic Poisson arrival schedule, regardless of
//     completions; a client that falls behind catches up in a burst,
//     never skips. Server stalls are charged to every sample they
//     delayed — the wrk2/HdrHistogram correction.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"palermo"
	"palermo/internal/rng"
	"palermo/internal/serve"
	"palermo/internal/stats"
)

// Target is the store surface a run drives. Both *palermo.ShardedStore
// and *palermo.Client satisfy it; Snapshot folds the two observability
// calls into one so a remote target pays a single wire round trip.
type Target interface {
	Blocks() uint64
	Write(id uint64, data []byte) error
	ReadBatch(ids []uint64) ([][]byte, error)
	Snapshot() (palermo.ServiceStats, palermo.TrafficReport, error)
}

// Options configures one run. Exactly one of Ops (op-bounded) or
// Duration (time-bounded) selects the stopping rule; Rate selects the
// load model.
type Options struct {
	Clients   int           // concurrent client goroutines (>= 1)
	Ops       int           // total operations across all clients (op-bounded runs)
	Duration  time.Duration // wall-clock budget (time-bounded runs, e.g. soaks)
	ReadRatio float64       // fraction of operations that are reads, in [0, 1]
	ZipfTheta float64       // Zipf skew over the id space (0 = uniform)
	Batch     int           // reads per ReadBatch call (1 = single-op loop)
	Seed      uint64        // base seed; client streams derive from it

	// Rate switches the run to open-loop load generation: the total
	// offered rate in operations per second, split evenly across the
	// clients, each following its own deterministic Poisson arrival
	// schedule (see ArrivalOffsets). 0 = closed loop. Open-loop runs
	// require Batch == 1 (the schedule paces individual operations) and
	// report latency from the intended send time, so queueing delay a
	// closed loop would hide is charged to the samples.
	Rate float64
}

func (o *Options) validate() error {
	if o.Clients < 1 || o.Batch < 1 {
		return fmt.Errorf("loadgen: Clients and Batch must be >= 1")
	}
	if (o.Ops >= 1) == (o.Duration > 0) {
		return fmt.Errorf("loadgen: exactly one of Ops and Duration must be set")
	}
	if o.Ops < 0 || o.Duration < 0 {
		return fmt.Errorf("loadgen: Ops and Duration must not be negative")
	}
	if o.ReadRatio < 0 || o.ReadRatio > 1 {
		return fmt.Errorf("loadgen: ReadRatio must be in [0, 1]")
	}
	if o.ZipfTheta < 0 {
		return fmt.Errorf("loadgen: ZipfTheta must be >= 0")
	}
	if o.Rate < 0 {
		return fmt.Errorf("loadgen: Rate must be >= 0")
	}
	if o.Rate > 0 && o.Batch != 1 {
		return fmt.Errorf("loadgen: open-loop runs (Rate > 0) require Batch == 1")
	}
	return nil
}

// Result is what a run measured. Stats/Traffic describe this run only:
// the target is snapshotted before the first client starts and after the
// last one finishes, and the result is the difference (serve.Sub) — so
// driving a long-lived remote server (whose counters and latency
// histograms accumulate across runs and clients) reports this run's work
// and this run's latency distribution, not the server's lifetime. The
// store is left open; the caller closes it.
type Result struct {
	Wall    time.Duration
	Stats   palermo.ServiceStats
	Traffic palermo.TrafficReport

	// RunReadLat/RunWriteLat summarize this run's own call latencies,
	// sampled at the driver: one sample per ReadBatch call (so a batch
	// counts once) and one per Write call, client-side call overhead
	// included. In open-loop runs the sample is measured from the
	// operation's *intended* send time (coordinated-omission corrected);
	// shed operations are excluded.
	RunReadLat  palermo.LatencySummary
	RunWriteLat palermo.LatencySummary

	// ReadOverflow/WriteOverflow count the run-local samples at or above
	// LatCeilingUs, the top of the driver's histograms. A percentile whose
	// rank falls among them is reported as LatCeilingUs but is only a
	// lower bound (see Clipped); an overloaded open-loop run is where this
	// happens.
	ReadOverflow, WriteOverflow uint64
}

// Clipped reports whether the q-quantile of a run-local summary fell in
// the histogram's overflow bucket: fewer than ceil(q*N) of its N samples
// were below LatCeilingUs, so the reported value is the ceiling, not a
// measurement, and the true quantile is at least that.
func Clipped(sum palermo.LatencySummary, overflow uint64, q float64) bool {
	return overflow > 0 && float64(sum.N-overflow) < math.Ceil(q*float64(sum.N))
}

// FormatRunLat renders a run-local summary's p50 and p99 in whole
// microseconds, each as a lower bound (">=20480") when it was clipped at
// the histogram ceiling.
func FormatRunLat(sum palermo.LatencySummary, overflow uint64) (p50, p99 string) {
	render := func(us, q float64) string {
		if Clipped(sum, overflow, q) {
			return fmt.Sprintf(">=%.0f", us)
		}
		return fmt.Sprintf("%.0f", us)
	}
	return render(sum.P50Us, 0.50), render(sum.P99Us, 0.99)
}

// OpsPerSec returns completed operations per wall-clock second.
func (r Result) OpsPerSec() float64 {
	return float64(r.Stats.Reads+r.Stats.Writes) / r.Wall.Seconds()
}

// Run drives the store with o.Clients clients until o.Ops operations
// have been attempted (op budget split evenly) or o.Duration wall-clock
// has elapsed — whichever stopping rule Options selects. Ids are drawn
// from the store's full capacity, so the run is valid for any store the
// caller built. The first client error aborts the whole run promptly —
// every other client observes the shared abort signal, time-bounded
// runs included — and is returned. Operations the service shed under
// overload (palermo.ErrRetry) are not errors: the service counts them,
// one per op, in Result.Stats.Sheds, and the run continues.
func Run(st Target, o Options) (Result, error) {
	if err := o.validate(); err != nil {
		return Result{}, err
	}
	baseStats, baseTraffic, err := st.Snapshot()
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: baseline snapshot: %w", err)
	}
	clients := make([]client, o.Clients)
	errCh := make(chan error, o.Clients)
	abort := make(chan struct{})
	var abortOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	var deadline time.Time
	if o.Duration > 0 {
		deadline = start.Add(o.Duration)
	}
	for i := range clients {
		c := &clients[i]
		*c = client{
			st: st, id: uint64(i), ops: o.Ops / o.Clients, start: start, deadline: deadline,
			o: o, abort: abort, reads: newLatHistogram(), writes: newLatHistogram(),
		}
		if i < o.Ops%o.Clients {
			c.ops++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.run(); err != nil {
				errCh <- err
				abortOnce.Do(func() { close(abort) })
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	endStats, traffic, err := st.Snapshot()
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: final snapshot: %w", err)
	}
	res := Result{
		Wall:    wall,
		Stats:   serve.Sub(endStats, baseStats),
		Traffic: deltaTraffic(traffic, baseTraffic),
	}
	reads, writes := newLatHistogram(), newLatHistogram()
	for _, c := range clients {
		reads.Merge(c.reads)
		writes.Merge(c.writes)
	}
	res.RunReadLat, res.ReadOverflow = serve.Summarize(reads), reads.Overflow()
	res.RunWriteLat, res.WriteOverflow = serve.Summarize(writes), writes.Overflow()
	return res, nil
}

// The run-local histograms: 5 µs buckets (the service's own bucketing) up
// to LatCeilingUs.
const (
	latBuckets  = serve.LatBuckets
	latBucketUs = 5

	// LatCeilingUs is the largest latency the run-local histograms
	// resolve; samples at or above it are counted in Result.ReadOverflow/
	// WriteOverflow.
	LatCeilingUs = latBuckets * latBucketUs
)

func newLatHistogram() *stats.Histogram { return stats.NewHistogram(latBuckets, latBucketUs) }

// deltaTraffic subtracts the baseline traffic counters and recomputes the
// amplification factor over the run's own operations. StashPeak is a
// lifetime high-water mark and is reported as-is.
func deltaTraffic(end, base palermo.TrafficReport) palermo.TrafficReport {
	end.Reads -= base.Reads
	end.Writes -= base.Writes
	end.DRAMReads -= base.DRAMReads
	end.DRAMWrites -= base.DRAMWrites
	end.TreeTopHits -= base.TreeTopHits
	end.AmplificationFactor = 0
	if ops := end.Reads + end.Writes; ops > 0 {
		end.AmplificationFactor = float64(end.DRAMReads+end.DRAMWrites) / float64(ops)
	}
	return end
}

// opSeedMul and arrivalSeedMul derive each client's two independent
// deterministic streams from the base seed: the op-mix stream (which id,
// read or write) and the open-loop arrival schedule. Separate streams
// mean pacing a run does not perturb which ops its clients issue.
const (
	opSeedMul      = 0x2545f4914f6cdd1d
	arrivalSeedMul = 0x9e3779b97f4a7c15
)

// client is one workload client's parameters and its run-local latency
// histograms.
type client struct {
	st            Target
	id            uint64
	ops           int // this client's share of the op budget (op-bounded runs)
	start         time.Time
	deadline      time.Time // zero in op-bounded runs
	o             Options
	abort         <-chan struct{} // closed when any client fails: stop now
	reads, writes *stats.Histogram
}

// run is the client loop. Each operation — a read of up to Batch ids
// (uniform or Zipfian over the store's capacity; Zipf rank 0 is the
// hottest id, and striped routing spreads consecutive ranks across all
// shards) or a write — has an intended send time: now in a closed loop,
// so the next op goes out as the previous one completes, or the client's
// next Poisson arrival when Rate > 0. The client waits for that time,
// issues the op and samples its latency from it. An open-loop client
// behind schedule catches up in a burst and never skips an arrival, so
// the offered op count is a function of rate and elapsed time, not of
// the server's speed. The loop ends when the op share is spent
// (op-bounded), the next send falls past the deadline (time-bounded) or
// another client failed. A shed op (palermo.ErrRetry) spends its budget
// and is sampled nowhere; the service counts it.
func (c *client) run() error {
	blocks := c.st.Blocks()
	r := rng.New(c.o.Seed + opSeedMul*(c.id+1))
	next := func() uint64 { return r.Uint64n(blocks) }
	if c.o.ZipfTheta > 0 {
		next = rng.NewZipf(r, blocks, c.o.ZipfTheta).Next
	}
	var arrive func() time.Duration
	if c.o.Rate > 0 {
		arrive = arrivals(c.o.Seed, c.id, c.o.Rate/float64(c.o.Clients))
	}
	timed := !c.deadline.IsZero()
	buf := make([]byte, palermo.BlockSize)
	ids := make([]uint64, 0, c.o.Batch)
	for done := 0; timed || done < c.ops; {
		read := r.Float64() < c.o.ReadRatio
		n := 1
		if read {
			n = c.o.Batch
			if !timed {
				n = min(n, c.ops-done)
			}
		}
		ids = ids[:0]
		for range n {
			ids = append(ids, next())
		}
		intended := time.Now()
		if arrive != nil {
			intended = c.start.Add(arrive())
		}
		if timed && intended.After(c.deadline) || !sleepUntil(intended, c.abort) {
			return nil
		}
		var err error
		if read {
			_, err = c.st.ReadBatch(ids)
		} else {
			buf[0] = byte(done)
			buf[palermo.BlockSize-1] = byte(c.id)
			err = c.st.Write(ids[0], buf)
		}
		lat := float64(time.Since(intended).Microseconds())
		done += n
		if errors.Is(err, palermo.ErrRetry) {
			continue
		}
		if err != nil {
			return err
		}
		if read {
			c.reads.Add(lat)
		} else {
			c.writes.Add(lat)
		}
	}
	return nil
}

// arrivals returns client id's open-loop schedule at rate ops/s: each call
// yields the next intended send time as an offset from run start, the
// last one plus an exponential gap (a Poisson process).
func arrivals(seed, id uint64, rate float64) func() time.Duration {
	r := rng.New(seed + arrivalSeedMul*(id+1))
	var at time.Duration
	return func() time.Duration {
		u := r.Float64() // in [0, 1): log1p(-u) is finite
		at += time.Duration(-math.Log1p(-u) / rate * float64(time.Second))
		return at
	}
}

// paceSlice bounds one pause of sleepUntil, so a sleeping client notices
// abort within about a millisecond.
const paceSlice = time.Millisecond

// sleepUntil blocks until t (or returns immediately when t has passed —
// the catch-up burst) unless abort closes first; it reports whether the
// client should proceed. It sleeps in pause (nanosleep on linux) rather
// than on a runtime timer: benchmark/README.md measured Go timers waking
// 0.3-1 ms late at any length on the reference host, which an open-loop
// run charges to every sample as latency the service never caused.
func sleepUntil(t time.Time, abort <-chan struct{}) bool {
	for {
		select {
		case <-abort:
			return false
		default:
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		if d > paceSlice {
			d = paceSlice
		}
		pause(d)
	}
}

// ArrivalOffsets returns the first n arrival offsets (run start to
// intended send) of client id's open-loop schedule under the given base
// seed and *per-client* rate. The schedule is a pure function of these
// arguments — the client loop reads the same arrivals clock — so two runs
// with the same options intend exactly the same send times, and an
// open-loop run is reproducible in the same sense a seeded closed-loop
// run is.
func ArrivalOffsets(seed, id uint64, perClientRate float64, n int) []time.Duration {
	next := arrivals(seed, id, perClientRate)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = next()
	}
	return out
}
