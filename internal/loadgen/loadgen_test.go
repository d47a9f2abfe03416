package loadgen

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"palermo"
)

func TestRunDrivesStore(t *testing.T) {
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 12, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := Run(st, Options{
		Clients:   4,
		Ops:       500,
		ReadRatio: 0.8,
		ZipfTheta: 0.99,
		Batch:     4,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Reads + res.Stats.Writes; got != 500 {
		t.Fatalf("completed %d ops, want 500", got)
	}
	if res.OpsPerSec() <= 0 || res.Wall <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Traffic.DRAMReads == 0 {
		t.Fatal("no ORAM traffic recorded")
	}
	// The Zipf head concentrates duplicate ids inside the 4-wide read
	// batches, so fan-out dedup must fire at least occasionally.
	if res.Stats.DedupHits == 0 {
		t.Fatal("skewed batched reads produced no dedup fan-outs")
	}
}

// TestRunReportsDeltasOnWarmTarget: driving a target that already carries
// history (a long-lived server, a previous run) must report this run's
// operations, not the target's cumulative lifetime counters.
func TestRunReportsDeltasOnWarmTarget(t *testing.T) {
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 12, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opts := Options{Clients: 2, Ops: 300, ReadRatio: 0.5, Batch: 2, Seed: 1}
	if _, err := Run(st, opts); err != nil {
		t.Fatal(err) // warm the target with 300 ops of history
	}
	res, err := Run(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Reads + res.Stats.Writes; got != 300 {
		t.Fatalf("warm-target run reported %d ops, want its own 300", got)
	}
	if res.Stats.ReadLat.N != res.Stats.Reads {
		t.Fatalf("latency count %d does not match the run's %d reads",
			res.Stats.ReadLat.N, res.Stats.Reads)
	}
	if res.Traffic.DRAMReads == 0 || res.Traffic.AmplificationFactor <= 0 {
		t.Fatalf("run traffic not isolated from history: %+v", res.Traffic)
	}
}

// TestRunWarmTargetPercentilesAreRunLocal: against a warm target the
// service's cumulative histograms mix earlier runs' samples into the
// lifetime p50/p99, which two snapshots cannot un-mix. The driver's own
// per-call samples must take over: the reported percentiles come from
// RunReadLat/RunWriteLat, and those summaries count exactly this run's
// calls.
func TestRunWarmTargetPercentilesAreRunLocal(t *testing.T) {
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 12, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opts := Options{Clients: 2, Ops: 400, ReadRatio: 0.5, Batch: 2, Seed: 7}
	if _, err := Run(st, opts); err != nil {
		t.Fatal(err) // history the snapshots must factor out
	}
	res, err := Run(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One sample per ReadBatch call and per Write call: reads/Batch calls
	// (the op split guarantees whole batches here) plus the writes.
	wantReadCalls := res.Stats.Reads / uint64(opts.Batch)
	if res.RunReadLat.N != wantReadCalls {
		t.Fatalf("run-local read summary counted %d calls, want %d",
			res.RunReadLat.N, wantReadCalls)
	}
	if res.RunWriteLat.N != res.Stats.Writes {
		t.Fatalf("run-local write summary counted %d calls, want %d writes",
			res.RunWriteLat.N, res.Stats.Writes)
	}
	// The warm-target stats must carry the run-local percentiles, not the
	// lifetime-weighted ones.
	if res.Stats.ReadLat.P50Us != res.RunReadLat.P50Us ||
		res.Stats.ReadLat.P99Us != res.RunReadLat.P99Us {
		t.Fatalf("warm-target read percentiles %+v not substituted from run-local %+v",
			res.Stats.ReadLat, res.RunReadLat)
	}
	if res.Stats.WriteLat.P50Us != res.RunWriteLat.P50Us ||
		res.Stats.WriteLat.P99Us != res.RunWriteLat.P99Us {
		t.Fatalf("warm-target write percentiles %+v not substituted from run-local %+v",
			res.Stats.WriteLat, res.RunWriteLat)
	}
	if res.RunReadLat.P99Us < res.RunReadLat.P50Us || res.RunReadLat.MeanUs <= 0 {
		t.Fatalf("implausible run-local read summary: %+v", res.RunReadLat)
	}
}

// glitchTarget is an in-memory Target whose call number failAt (1-based,
// counted across all clients) fails exactly once; every other call
// succeeds instantly. It isolates the abort path: exactly one client
// sees the error, and the question is what the others do about it.
type glitchTarget struct {
	mu     sync.Mutex
	calls  int
	failAt int
}

func (g *glitchTarget) Blocks() uint64 { return 1 << 10 }

func (g *glitchTarget) tick() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.calls++
	if g.calls == g.failAt {
		return errors.New("glitch: injected failure")
	}
	return nil
}

func (g *glitchTarget) Write(id uint64, data []byte) error { return g.tick() }

func (g *glitchTarget) ReadBatch(ids []uint64) ([][]byte, error) {
	if err := g.tick(); err != nil {
		return nil, err
	}
	out := make([][]byte, len(ids))
	for i := range out {
		out[i] = make([]byte, palermo.BlockSize)
	}
	return out, nil
}

func (g *glitchTarget) Snapshot() (palermo.ServiceStats, palermo.TrafficReport, error) {
	return palermo.ServiceStats{}, palermo.TrafficReport{}, nil
}

// TestTimedRunAbortsOnFirstError: regression for the stuck-soak bug. A
// time-bounded run used to let the surviving clients hammer the target
// until the deadline after one client had already failed — a 10-minute
// soak with an early error burned the full 10 minutes before reporting
// it. The first error must abort every client promptly.
func TestTimedRunAbortsOnFirstError(t *testing.T) {
	g := &glitchTarget{failAt: 50}
	start := time.Now()
	_, err := Run(g, Options{
		Clients: 4, Duration: 10 * time.Second, ReadRatio: 0.5, Batch: 1, Seed: 1,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run must surface the injected client error")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("run took %v to abort after the first error; the 10s deadline leaked into the failure path", elapsed)
	}
}

// TestOpBoundedRunAbortsOnFirstError: the op-bounded stopping rule must
// observe the same abort signal — with a large budget and fast ops, the
// surviving clients would otherwise spin through millions of calls.
func TestOpBoundedRunAbortsOnFirstError(t *testing.T) {
	g := &glitchTarget{failAt: 50}
	start := time.Now()
	_, err := Run(g, Options{
		Clients: 4, Ops: 50_000_000, ReadRatio: 0.5, Batch: 1, Seed: 1,
	})
	if err == nil {
		t.Fatal("run must surface the injected client error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("op-bounded run ground through its budget (%v) instead of aborting", elapsed)
	}
}

// TestArrivalOffsetsDeterministic: the open-loop arrival schedule is a
// pure function of (seed, client id, rate) — same inputs, identical
// intended send times; different client or seed, a different stream.
func TestArrivalOffsetsDeterministic(t *testing.T) {
	a := ArrivalOffsets(7, 0, 1000, 500)
	b := ArrivalOffsets(7, 0, 1000, 500)
	if len(a) != 500 {
		t.Fatalf("got %d offsets, want 500", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs between identical schedules: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("offsets must be nondecreasing and nonnegative: [%d]=%v", i, a[i])
		}
	}
	c := ArrivalOffsets(7, 1, 1000, 500)
	d := ArrivalOffsets(8, 0, 1000, 500)
	if a[10] == c[10] && a[11] == c[11] {
		t.Fatal("client 1's schedule must diverge from client 0's")
	}
	if a[10] == d[10] && a[11] == d[11] {
		t.Fatal("a different seed must produce a different schedule")
	}
	// Mean inter-arrival gap should approximate 1/rate (1ms at 1000/s).
	mean := a[len(a)-1] / time.Duration(len(a))
	if mean < 500*time.Microsecond || mean > 2*time.Millisecond {
		t.Fatalf("mean gap %v implausible for 1000 ops/s", mean)
	}
}

// TestOpenLoopRun drives a real store open-loop and checks the rate
// accounting: OfferedRate echoes the option, every attempt lands in
// exactly one of completed/shed, and intended-send summaries cover the
// completed ops.
func TestOpenLoopRun(t *testing.T) {
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 12, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := Run(st, Options{
		Clients: 2, Ops: 400, ReadRatio: 0.7, Batch: 1, Seed: 3, Rate: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OfferedRate != 50_000 {
		t.Fatalf("OfferedRate = %v, want 50000", res.OfferedRate)
	}
	if res.AchievedRate <= 0 {
		t.Fatalf("AchievedRate = %v, want > 0", res.AchievedRate)
	}
	done := res.Stats.Reads + res.Stats.Writes
	if done+res.ShedOps != 400 {
		t.Fatalf("completed %d + shed %d must account for all 400 attempts", done, res.ShedOps)
	}
	if res.RunReadLat.N+res.RunWriteLat.N != done {
		t.Fatalf("intended-send samples %d != completed ops %d",
			res.RunReadLat.N+res.RunWriteLat.N, done)
	}
}

// TestRunCountsShedsNotErrors: with an admission deadline no queued
// request can meet, every operation comes back palermo.ErrRetry — the
// run must complete normally, count the sheds, and keep them out of the
// latency summaries and the completed-op counters.
func TestRunCountsShedsNotErrors(t *testing.T) {
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{
		Blocks: 1 << 12, Shards: 2, AdmissionDeadline: 1, // 1ns: sheds everything
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := Run(st, Options{Clients: 2, Ops: 200, ReadRatio: 0.5, Batch: 1, Seed: 5})
	if err != nil {
		t.Fatalf("shed operations must not be run errors: %v", err)
	}
	if res.ShedOps != 200 {
		t.Fatalf("ShedOps = %d, want all 200 attempts shed", res.ShedOps)
	}
	if got := res.Stats.Reads + res.Stats.Writes; got != 0 {
		t.Fatalf("%d ops reported completed; shed ops must not count", got)
	}
	if res.RunReadLat.N != 0 || res.RunWriteLat.N != 0 {
		t.Fatalf("shed ops leaked into latency summaries: %+v %+v",
			res.RunReadLat, res.RunWriteLat)
	}
	if res.Stats.Sheds != 200 {
		t.Fatalf("service counted %d sheds, want 200", res.Stats.Sheds)
	}
}

// TestRunMarksLifetimeWeightedQueueExec: regression for the warm-target
// percentile lie. QueueLat/ExecLat have no client-side observable, so on
// a warm target their p50/p99 stay lifetime-weighted — the result must
// say so instead of printing them indistinguishably from run-exact ones.
func TestRunMarksLifetimeWeightedQueueExec(t *testing.T) {
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 12, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opts := Options{Clients: 2, Ops: 200, ReadRatio: 0.5, Batch: 1, Seed: 2}
	res, err := Run(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueExecLifetime {
		t.Fatal("fresh target: queue/exec percentiles are run-exact, must not be flagged")
	}
	res, err = Run(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.QueueExecLifetime {
		t.Fatal("warm target: queue/exec percentiles are lifetime-weighted and must be flagged")
	}
}

func TestRunValidates(t *testing.T) {
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 10, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, o := range []Options{
		{Clients: 0, Ops: 10, Batch: 1},
		{Clients: 1, Ops: 0, Batch: 1},
		{Clients: 1, Ops: 10, Batch: 0},
		{Clients: 1, Ops: 10, Batch: 1, ReadRatio: 1.5},
		{Clients: 1, Ops: 10, Batch: 1, ZipfTheta: -1},
		{Clients: 1, Ops: 10, Batch: 1, Rate: -1},
		{Clients: 1, Ops: 10, Batch: 4, Rate: 1000}, // open loop paces single ops
	} {
		if _, err := Run(st, o); err == nil {
			t.Fatalf("options %+v must be rejected", o)
		}
	}
}

// slowTarget serves every call instantly except each slowEvery-th, which
// takes d — longer than the run-local histograms resolve.
type slowTarget struct {
	glitchTarget
	slowEvery int
	d         time.Duration
}

func (s *slowTarget) ReadBatch(ids []uint64) ([][]byte, error) {
	s.mu.Lock()
	slow := (s.calls+1)%s.slowEvery == 0
	s.mu.Unlock()
	if slow {
		time.Sleep(s.d)
	}
	return s.glitchTarget.ReadBatch(ids)
}

// TestRunReportsClippedPercentiles: regression for the open-loop
// record's x200 row, whose read p99 was exactly 20480 µs — the histogram ceiling
// printed as if it had been measured. Samples beyond the ceiling must be
// counted in the result, and a percentile that falls among them must be
// marked as a lower bound while one below them is not.
func TestRunReportsClippedPercentiles(t *testing.T) {
	st := &slowTarget{slowEvery: 4, d: (LatCeilingUs + 2000) * time.Microsecond}
	res, err := Run(st, Options{Clients: 1, Ops: 40, ReadRatio: 1, Batch: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunReadLat.N != 40 || res.ReadOverflow != 10 || res.WriteOverflow != 0 {
		t.Fatalf("N=%d read overflow=%d write overflow=%d, want 40/10/0", res.RunReadLat.N, res.ReadOverflow, res.WriteOverflow)
	}
	if res.RunReadLat.P99Us != LatCeilingUs || !Clipped(res.RunReadLat, res.ReadOverflow, 0.99) {
		t.Fatalf("p99 = %v clipped=%v: a quarter of the samples overflowed, p99 must be the ceiling and marked",
			res.RunReadLat.P99Us, Clipped(res.RunReadLat, res.ReadOverflow, 0.99))
	}
	if Clipped(res.RunReadLat, res.ReadOverflow, 0.50) {
		t.Fatalf("p50 marked clipped with three quarters of the samples below the ceiling")
	}
	p50, p99 := FormatRunLat(res.RunReadLat, res.ReadOverflow)
	if p99 != ">=20480" || p50[0] == '>' {
		t.Fatalf("rendered p50 %q p99 %q", p50, p99)
	}

	// The boundary: with N samples the p99 has rank ceil(0.99 N), so it is
	// a measurement as long as that many samples stayed below the ceiling.
	sum := palermo.LatencySummary{N: 1000}
	if Clipped(sum, 0, 0.99) || Clipped(sum, 10, 0.99) || !Clipped(sum, 11, 0.99) {
		t.Fatalf("Clipped boundary wrong at N=1000")
	}
}

// TestSleepUntilLateness bounds how late the open-loop pacer wakes for the
// gaps a Poisson schedule at serving rates produces. A runtime timer wakes
// 0.3-1 ms late on the reference host, which an open-loop run books as
// service latency; nanosleep wakes about 0.1 ms late. The bound is on the
// median so a descheduled test process cannot flake it.
func TestSleepUntilLateness(t *testing.T) {
	never := make(chan struct{})
	for _, gap := range []time.Duration{200 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond} {
		late := make([]time.Duration, 41)
		for i := range late {
			due := time.Now().Add(gap)
			if !sleepUntil(due, never) {
				t.Fatal("sleepUntil aborted without an abort")
			}
			late[i] = time.Since(due)
			if late[i] < 0 {
				t.Fatalf("gap %v: woke %v early", gap, -late[i])
			}
		}
		sort.Slice(late, func(a, b int) bool { return late[a] < late[b] })
		if med := late[len(late)/2]; med > latenessBound {
			t.Errorf("gap %v: median wake-up lateness %v, want <= %v", gap, med, latenessBound)
		}
	}
}

// TestSleepUntilAbort: a client sleeping toward a far-off arrival notices
// the abort within a few pacing slices.
func TestSleepUntilAbort(t *testing.T) {
	abort := make(chan struct{})
	time.AfterFunc(5*time.Millisecond, func() { close(abort) })
	start := time.Now()
	if sleepUntil(start.Add(time.Minute), abort) {
		t.Fatal("sleepUntil reported proceed after abort")
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("abort noticed after %v", took)
	}
	if sleepUntil(time.Now().Add(-time.Second), abort) {
		t.Fatal("a past deadline must still honor abort")
	}
}
