package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"palermo"
	"palermo/benchmark/layers"
)

// run is one workload's measurement against one built system.
type run struct {
	wl   *workload
	sz   size
	seed uint64
	sys  *system
	ver  versions
	zipf *zipf
	ref  *reference
	base time.Time

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string // the first few, for the report
}

// now is the benchmark's clock: nanoseconds since the run began.
func (r *run) now() int64 { return int64(time.Since(r.base)) }

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
}

// caller is one goroutine's private state for sending requests.
type caller struct {
	r      *run
	tgt    target
	buf    []byte
	floors []uint64
}

func (r *run) newCaller() *caller {
	return &caller{r: r, tgt: r.sys.tgt, buf: make([]byte, blockSize)}
}

// do sends one request and verifies the reply. Any error, ErrRetry sheds
// included, and any block that fails verification counts as one failed
// request.
func (c *caller) do(q *request) {
	r := c.r
	r.attempted.Add(1)
	var err error
	switch {
	case q.write:
		id := q.ids[0]
		v := r.ver[id].Load() + 1
		payload(c.buf, id, v)
		if err = c.tgt.Write(id, c.buf); err == nil {
			r.ver[id].Store(v)
		}
	case len(q.ids) == 1:
		id := q.ids[0]
		floor := r.ver[id].Load()
		var b []byte
		if b, err = c.tgt.Read(id); err == nil {
			err = r.ver.check(id, b, floor)
		}
	default:
		c.floors = c.floors[:0]
		for _, id := range q.ids {
			c.floors = append(c.floors, r.ver[id].Load())
		}
		var bs [][]byte
		if bs, err = c.tgt.ReadBatch(q.ids); err == nil {
			for i, id := range q.ids {
				if err = r.ver.check(id, bs[i], c.floors[i]); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		r.fail(err)
	}
}

// The timed phases. Each is cut into rounds with a burst of the reference
// server before and after every round (ref.go); a timed metric is the
// median over rounds of the round's statistic, scaled to the host's
// nominal speed by the mean of the two bursts around the round.

// roundStat is the median over rounds of the scaled per-round p50 and p99,
// in microseconds, with the number of samples behind them.
type roundStat struct {
	p50s, p99s []float64
	n          int
}

// add takes one round's samples from every goroutine that collected some.
func (st *roundStat) add(parts [][]int64, speed float64) {
	var all []int64
	for i := range parts {
		all = append(all, parts[i]...)
		parts[i] = parts[i][:0]
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	st.p50s = append(st.p50s, percentile(all, 50)/1e3*speed)
	st.p99s = append(st.p99s, percentile(all, 99)/1e3*speed)
	st.n += len(all)
}

func (st *roundStat) p50() float64 { return median(st.p50s) }
func (st *roundStat) p99() float64 { return median(st.p99s) }

// rounds is how many rounds fit a phase of length d.
func (r *run) rounds(d time.Duration) int {
	return max(1, int(d/(r.sz.Round+r.sz.RefBurst)))
}

type closedStats struct {
	opsPerS    float64 // scaled; median over rounds
	cpuUsPerOp float64 // scaled; median over rounds
	hostSpeed  float64 // the factor timings were scaled by (ref.go); median over rounds
	rounds     int
	ops        int64
	read       roundStat
	write      roundStat
}

// closedPhase runs sz.Callers callers, each sending its next request when
// the previous one returns, for about dur.
func (r *run) closedPhase(purpose string, dur time.Duration) closedStats {
	n := r.sz.Callers
	callers := make([]*caller, n)
	gens := make([]*reqGen, n)
	for i := range callers {
		callers[i] = r.newCaller()
		gens[i] = newReqGen(r.wl, r.sz.Blocks, r.zipf, r.seed, purpose, i, n)
	}
	reads, writes := make([][]int64, n), make([][]int64, n)
	st := closedStats{rounds: r.rounds(dur)}
	var rates, cpus, speeds []float64
	before := r.ref.speed(r.sz.RefBurst)
	for k := 0; k < st.rounds; k++ {
		var ops atomic.Int64
		start, cpu0 := r.now(), cpuTime()
		end := start + int64(r.sz.Round)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var q request
				var done int64
				for {
					t0 := r.now()
					if t0 >= end {
						break
					}
					gens[i].next(&q)
					callers[i].do(&q)
					if d := r.now() - t0; q.write {
						writes[i] = append(writes[i], d)
					} else {
						reads[i] = append(reads[i], d)
					}
					done += int64(q.ops())
				}
				ops.Add(done)
			}()
		}
		wg.Wait()
		wall, cpu := r.now()-start, cpuTime()-cpu0
		after := r.ref.speed(r.sz.RefBurst)
		speed := (before + after) / 2
		before = after
		speeds = append(speeds, speed)
		if d := ops.Load(); d > 0 {
			rates = append(rates, float64(d)/(float64(wall)/1e9)/speed)
			cpus = append(cpus, float64(cpu)/1e3/float64(d)*speed)
			st.ops += d
		}
		st.read.add(reads, speed)
		st.write.add(writes, speed)
	}
	st.opsPerS, st.cpuUsPerOp, st.hostSpeed = median(rates), median(cpus), median(speeds)
	return st
}

type pacedStats struct {
	lat    roundStat
	lagP50 float64 // microseconds, unscaled: a property of the generator
	lagP99 float64
	lagN   int
}

// pacedPhase runs sz.PacedCallers callers on a fixed tick schedule. Each
// tick sends one burst and every request of it is timed from the tick's
// due time, whatever the previous burst did. A caller waits for a due time
// in nanosleep, never spinning, and its wake-up lateness is recorded as
// generator lag; a tick already due when the previous burst returns is
// sent at once, and that lateness is the system's, not the generator's.
func (r *run) pacedPhase() pacedStats {
	n, burst, tick := r.sz.PacedCallers, r.wl.Burst, int64(r.sz.Tick)
	callers := make([]*caller, n*burst)
	gens := make([]*reqGen, n*burst)
	for i := range callers {
		callers[i] = r.newCaller()
		gens[i] = newReqGen(r.wl, r.sz.Blocks, r.zipf, r.seed, "paced", i, n*burst)
	}
	lats := make([][]int64, n*burst)
	lags := make([][]int64, n)
	ticks := int(int64(r.sz.Round) / tick)
	var st pacedStats
	before := r.ref.speed(r.sz.RefBurst)
	for k := 0; k < r.rounds(r.sz.Paced); k++ {
		start := r.now() + tick
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One worker per request of a burst: the caller hands each
				// the tick's due time and waits for all of them.
				jobs := make([]chan int64, burst)
				var done, workers sync.WaitGroup
				for w := range jobs {
					jobs[w] = make(chan int64)
					workers.Add(1)
					go func() {
						defer workers.Done()
						var q request
						me := i*burst + w
						for due := range jobs[w] {
							gens[me].next(&q)
							callers[me].do(&q)
							lats[me] = append(lats[me], r.now()-due)
							done.Done()
						}
					}()
				}
				offset := tick * int64(i) / int64(n)
				for t := 0; t < ticks; t++ {
					due := start + offset + int64(t)*tick
					if wait := due - r.now(); wait > 0 {
						sleepFor(time.Duration(wait))
						lags[i] = append(lags[i], r.now()-due)
					}
					done.Add(burst)
					for w := range jobs {
						jobs[w] <- due
					}
					done.Wait()
				}
				for w := range jobs {
					close(jobs[w])
				}
				workers.Wait()
			}()
		}
		wg.Wait()
		after := r.ref.speed(r.sz.RefBurst)
		st.lat.add(lats, (before+after)/2)
		before = after
	}
	var lag []int64
	for i := range lags {
		lag = append(lag, lags[i]...)
	}
	sort.Slice(lag, func(i, j int) bool { return lag[i] < lag[j] })
	st.lagP50, st.lagP99, st.lagN = percentile(lag, 50)/1e3, percentile(lag, 99)/1e3, len(lag)
	return st
}

// counters is every cumulative count the program and the process export,
// read before and after the closed phase.
type counters struct {
	stats      palermo.ServiceStats
	traffic    palermo.TrafficReport
	fsyncN     uint64
	fsyncT     time.Duration
	net        palermo.ClientNetStats
	epoch      uint64
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	allCPU     float64 // seconds
	diskWrite  uint64  // bytes this process caused to be written to storage
}

func (r *run) snapshot() (counters, error) {
	var c counters
	var err error
	if c.stats, c.traffic, err = r.sys.tgt.Snapshot(); err != nil {
		return c, fmt.Errorf("snapshot: %w", err)
	}
	c.fsyncN, c.fsyncT = r.sys.fsyncLag()
	if r.sys.netStats != nil {
		c.net = r.sys.netStats()
	}
	if r.sys.epoch != nil {
		c.epoch = r.sys.epoch()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	c.diskWrite = procWriteBytes()
	return c, nil
}

// procWriteBytes is write_bytes of /proc/self/io: bytes this process
// dirtied in the page cache or wrote directly; sockets do not count. 0
// where the file does not exist.
func procWriteBytes() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

// liveHeapMB forces two collections, the second for what finalizers of
// the first released (closed connections and files of an earlier run in
// the same process), and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// checkpointWatch counts, from outside, the checkpoints each shard's
// engine completes: every checkpoint replaces the shard's snapshot file,
// so a changed inode, modification time or size is one checkpoint (or several, if
// they fall inside one 5 ms poll; the count is a lower bound).
type checkpointWatch struct {
	paths []string
	stop  chan struct{}
	done  chan struct{}
	n     []int
}

func (r *run) watchCheckpoints() *checkpointWatch {
	w := &checkpointWatch{stop: make(chan struct{}), done: make(chan struct{})}
	for i := 0; i < r.sys.shards && r.wl.durable(); i++ {
		dir := r.sys.dir
		if r.wl.Target == "cluster" {
			dir = fmt.Sprintf("%s/node-%d", dir, i)
		}
		w.paths = append(w.paths, layers.SnapshotPath(r.wl.Engine, dir, i))
	}
	w.n = make([]int, len(w.paths))
	go func() {
		defer close(w.done)
		last := make([]os.FileInfo, len(w.paths))
		for {
			for i, p := range w.paths {
				fi, err := os.Stat(p)
				if err != nil {
					continue
				}
				if l := last[i]; l != nil && !(os.SameFile(l, fi) && l.ModTime().Equal(fi.ModTime()) && l.Size() == fi.Size()) {
					w.n[i]++
				}
				last[i] = fi
			}
			select {
			case <-w.stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	return w
}

// perShard stops the watch and returns the fewest checkpoints any shard
// completed.
func (w *checkpointWatch) perShard() int {
	close(w.stop)
	<-w.done
	if len(w.n) == 0 {
		return 0
	}
	least := w.n[0]
	for _, n := range w.n {
		least = min(least, n)
	}
	return least
}

// restart closes the system, measures its directory, reopens it and reads
// one block; then, untimed, it re-reads every block and requires exactly
// the last acknowledged version.
func (r *run) restart() (restartS float64, diskBytes int64, err error) {
	t0 := time.Now()
	if err = r.sys.close(); err != nil {
		return 0, 0, fmt.Errorf("close: %w", err)
	}
	closed := time.Since(t0)
	if diskBytes, err = dirBytes(r.sys.dir); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if err = r.sys.open(); err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	c := r.newCaller()
	c.do(&request{ids: []uint64{0}})
	restartS = (closed + time.Since(t1)).Seconds()

	const chunk = 256
	ids := make([]uint64, 0, chunk)
	for id := uint64(0); id < r.sz.Blocks; id += chunk {
		ids = ids[:0]
		for j := id; j < min(id+chunk, r.sz.Blocks); j++ {
			ids = append(ids, j)
		}
		r.attempted.Add(1)
		bs, err := r.sys.tgt.ReadBatch(ids)
		if err != nil {
			r.fail(fmt.Errorf("re-read after restart: %w", err))
			continue
		}
		for i, j := range ids {
			// floor == ceiling: no write is in flight, so the block must
			// hold exactly the acknowledged version.
			want := r.ver[j].Load()
			if err := r.ver.check(j, bs[i], want); err != nil {
				r.fail(fmt.Errorf("after restart: %w", err))
				break
			} else if got := payloadVersion(bs[i]); got != want {
				r.fail(fmt.Errorf("after restart: block %d holds version %d, last acknowledged %d", j, got, want))
				break
			}
		}
	}
	return restartS, diskBytes, nil
}
