package loadgen

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"palermo"
	"palermo/internal/serve"
	"palermo/internal/stats"
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
// driver's own per-call summaries count exactly this run's calls, and the
// service-side summaries count exactly this run's operations.
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
	s := res.Stats
	if s.ReadLat.N != s.Reads || s.WriteLat.N != s.Writes || s.QueueLat.N != s.Reads+s.Writes || s.ExecLat.N != s.Reads+s.Writes {
		t.Fatalf("service summaries do not count the run's %d reads and %d writes: %+v", s.Reads, s.Writes, s)
	}
	if res.RunReadLat.P99Us < res.RunReadLat.P50Us || res.RunReadLat.MeanUs <= 0 || s.ReadLat.MeanUs <= 0 {
		t.Fatalf("implausible read summaries: run-local %+v, service %+v", res.RunReadLat, s.ReadLat)
	}
}

// historyTarget serves every call instantly and answers its first
// Snapshot with a history of 1 ms samples and every later one with that
// history plus a run of 10 µs samples, in all four latency classes.
type historyTarget struct {
	glitchTarget
	snaps []palermo.ServiceStats
}

// latHists returns four service-layout histograms, class i holding
// n*(i+1) samples of us microseconds.
func latHists(n int, us float64) [4]*stats.Histogram {
	var h [4]*stats.Histogram
	for i := range h {
		h[i] = stats.NewHistogram(serve.LatBuckets, 5)
		for range n * (i + 1) {
			h[i].Add(us)
		}
	}
	return h
}

func countsOf(h [4]*stats.Histogram) (c [4]stats.Counts) {
	for i := range h {
		c[i] = h[i].Counts()
	}
	return c
}

func (h *historyTarget) Snapshot() (palermo.ServiceStats, palermo.TrafficReport, error) {
	s := h.snaps[0]
	if len(h.snaps) > 1 {
		h.snaps = h.snaps[1:]
	}
	return s, palermo.TrafficReport{}, nil
}

// TestRunSubtractsTargetHistory: the run's stats are the end snapshot
// minus the baseline, histograms included, so every class reports the
// run's own count, mean and percentiles — none is weighted by the 1 ms
// history the target carried into the run.
func TestRunSubtractsTargetHistory(t *testing.T) {
	history, run := latHists(1000, 1000), latHists(200, 10)
	end := latHists(1000, 1000)
	for i := range end {
		end[i].Merge(run[i])
	}
	tgt := &historyTarget{snaps: []palermo.ServiceStats{
		serve.FromHists(0, 0, countsOf(history)),
		serve.FromHists(0, 0, countsOf(end)),
	}}
	res, err := Run(tgt, Options{Clients: 1, Ops: 10, ReadRatio: 0.5, Batch: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := [4]palermo.LatencySummary{res.Stats.ReadLat, res.Stats.WriteLat, res.Stats.QueueLat, res.Stats.ExecLat}
	for i, name := range []string{"read", "write", "queue", "exec"} {
		want := serve.Summarize(run[i])
		if got[i] != want || want.P99Us >= 1000 {
			t.Errorf("%s: run stats %+v, want the run's own %+v", name, got[i], want)
		}
	}
	if res.Stats.Reads != 200 || res.Stats.Writes != 400 {
		t.Errorf("run counted %d reads, %d writes; want 200, 400", res.Stats.Reads, res.Stats.Writes)
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
// accounting: every attempt lands in exactly one of completed/shed, and
// intended-send summaries cover the completed ops.
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
	if res.OpsPerSec() <= 0 {
		t.Fatalf("OpsPerSec = %v, want > 0", res.OpsPerSec())
	}
	done := res.Stats.Reads + res.Stats.Writes
	if done+res.Stats.Sheds != 400 {
		t.Fatalf("completed %d + shed %d must account for all 400 attempts", done, res.Stats.Sheds)
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
	// Batch 4: a shed ReadBatch of four ids is four shed ops, not one.
	for _, batch := range []int{1, 4} {
		res, err := Run(st, Options{Clients: 2, Ops: 200, ReadRatio: 0.5, Batch: batch, Seed: 5})
		if err != nil {
			t.Fatalf("batch %d: shed operations must not be run errors: %v", batch, err)
		}
		if got := res.Stats.Reads + res.Stats.Writes; got != 0 {
			t.Fatalf("batch %d: %d ops reported completed; shed ops must not count", batch, got)
		}
		if res.RunReadLat.N != 0 || res.RunWriteLat.N != 0 {
			t.Fatalf("batch %d: shed ops leaked into latency summaries: %+v %+v",
				batch, res.RunReadLat, res.RunWriteLat)
		}
		if res.Stats.Sheds != 200 {
			t.Fatalf("batch %d: %d ops counted shed, want all 200 attempts", batch, res.Stats.Sheds)
		}
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

// recordTarget serves every call instantly and records each op it is
// sent: reads by id, writes by id and payload.
type recordTarget struct {
	mu  sync.Mutex
	ops []recordedOp
}

type recordedOp struct {
	write   bool
	id      uint64
	payload string
}

func (rt *recordTarget) Blocks() uint64 { return 1 << 10 }

func (rt *recordTarget) Write(id uint64, data []byte) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ops = append(rt.ops, recordedOp{write: true, id: id, payload: string(data)})
	return nil
}

func (rt *recordTarget) ReadBatch(ids []uint64) ([][]byte, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([][]byte, len(ids))
	for i, id := range ids {
		rt.ops = append(rt.ops, recordedOp{id: id})
		out[i] = make([]byte, palermo.BlockSize)
	}
	return out, nil
}

func (rt *recordTarget) Snapshot() (palermo.ServiceStats, palermo.TrafficReport, error) {
	return palermo.ServiceStats{}, palermo.TrafficReport{}, nil
}

// TestPacingKeepsTheOpStream: the arrival schedule draws from its own
// stream, so pacing a run must not change which ops its clients issue.
// At one seed a closed run and an open run issue the same sequence of
// (op, id, payload) from one client, and the same multiset from three
// (their interleaving is the scheduler's).
func TestPacingKeepsTheOpStream(t *testing.T) {
	for _, clients := range []int{1, 3} {
		issue := func(rate float64) []recordedOp {
			rt := &recordTarget{}
			_, err := Run(rt, Options{
				Clients: clients, Ops: 600, ReadRatio: 0.6, ZipfTheta: 0.9, Batch: 1, Seed: 11, Rate: rate,
			})
			if err != nil {
				t.Fatal(err)
			}
			if clients > 1 {
				slices.SortFunc(rt.ops, func(a, b recordedOp) int {
					return cmp.Compare(fmt.Sprint(a), fmt.Sprint(b))
				})
			}
			return rt.ops
		}
		closed, open := issue(0), issue(1e6)
		if len(closed) != 600 {
			t.Fatalf("%d clients: closed run issued %d ops, want 600", clients, len(closed))
		}
		if !slices.Equal(closed, open) {
			t.Fatalf("%d clients: the open run issued different ops than the closed run", clients)
		}
	}
}
