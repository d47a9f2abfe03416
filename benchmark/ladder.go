package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"palermo/benchmark/layers"
)

// The layer ladder: one caller replays one seeded stream of the workload's
// requests against a prefilled one-shard instance of each rung, bottom to
// top — oram, shard, store, client, cluster — stopping at the workload's
// own target. Every call into a rung is timed from outside; a layer's self
// time is its rung's mean minus the rung below (and, for the shard, minus
// the backend calls it waited for), so the shares sum to the top rung.
//
// The rungs take turns chunk by chunk over the stream instead of one after
// the other, so that drift of the host over the seconds a ladder takes
// lands on every rung alike and cancels in the differences.

// span is one timed call, as written to trace-<workload>.jsonl. Parent is
// the index, within the same rung, of the request the call belongs to;
// -1 for a request itself.
type span struct {
	rung       string
	req        int
	name       string
	start, end int64
	parent     int
}

// rung is one instance the stream is replayed against.
type rung struct {
	name   string
	traced bool
	do     func(i int, q *request, ids []uint64) error // ids: request i's distinct ids
	close  func() error
	ver    []uint64 // per-rung versions: every rung sees the same stream from the same start
	durs   []int64  // per request
	spans  []span
}

// ladderChunks is how many turns each rung takes: many, so that a drift
// of the host lands on neighbouring rungs alike, each still long enough
// (500 block operations) that the rung's cold start after the others ran
// is a small part of it.
const ladderChunks = 40

// ladderTolerance is the residual above which a ladder is invalid. Two
// identical TCP rungs differ by up to 7 % on the reference host
// (trace.overhead_share measures exactly that), so a thin layer between
// two of them, like the cluster's, can measure below zero by that much;
// the issue's 2 % would fail one cluster-wal ladder in four for noise.
const ladderTolerance = 0.10

// layerShare is one layer's self time on the ladder.
type layerShare struct {
	name string
	us   float64
}

func runLadder(r *run, res *result, outDir string) error {
	wl, sz := r.wl, r.sz
	blocks := sz.LadderBlocks
	nreq := sz.LadderOps / wl.Batch

	// The stream, generated once: requests and, for the lower rungs that
	// take one id at a time, each request's distinct ids (what serve's
	// in-batch dedup leaves of it).
	var z *zipf
	if wl.Zipf {
		z = newZipf(blocks, zipfTheta)
	}
	g := newReqGen(wl, blocks, z, r.seed, "ladder", 0, 1)
	reqs := make([]request, nreq)
	distinct := make([][]uint64, nreq)
	for i := range reqs {
		var q request
		g.next(&q)
		reqs[i] = q
		seen := make(map[uint64]bool, len(q.ids))
		for _, id := range q.ids {
			if !seen[id] {
				seen[id] = true
				distinct[i] = append(distinct[i], id)
			}
		}
	}

	var rungs []*rung
	defer func() {
		for _, rg := range rungs {
			rg.close()
		}
	}()
	add := func(rg *rung, err error) error {
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", rg.name, err)
		}
		rg.ver = make([]uint64, blocks)
		for i := range rg.ver {
			rg.ver[i] = 1
		}
		rungs = append(rungs, rg)
		return nil
	}

	var oramLines, oramCalls int64
	var ring *layers.Ring
	var timed *layers.TimedBackend
	if err := add(oramRung(r, blocks, &ring, &oramLines, &oramCalls)); err != nil {
		return err
	}
	if err := add(shardRung(r, blocks, outDir, &timed)); err != nil {
		return err
	}
	targets := []string{"store", "client", "cluster"}
	for _, t := range targets {
		if err := add(systemRung(r, t, t, true, blocks, outDir)); err != nil {
			return err
		}
		if t == wl.Target {
			// The top rung's twin: the same stream with no span recorded.
			if err := add(systemRung(r, t+".untraced", t, false, blocks, outDir)); err != nil {
				return err
			}
			break
		}
	}

	for c := 0; c < ladderChunks; c++ {
		lo, hi := nreq*c/ladderChunks, nreq*(c+1)/ladderChunks
		for k := range rungs {
			// Odd chunks run top to bottom, so that no rung always follows
			// the same neighbour.
			rg := rungs[k]
			if c%2 == 1 {
				rg = rungs[len(rungs)-1-k]
			}
			for i := lo; i < hi; i++ {
				t0 := r.now()
				err := rg.do(i, &reqs[i], distinct[i])
				t1 := r.now()
				if err != nil {
					return fmt.Errorf("ladder rung %s, request %d: %w", rg.name, i, err)
				}
				rg.durs = append(rg.durs, t1-t0)
				if rg.traced {
					rg.spans = append(rg.spans, span{rg.name, i, rg.name + ".request", t0, t1, -1})
				}
			}
		}
	}

	// A rung's time per block operation the caller asked for: the median
	// over its turns of the turn's mean, so that a turn the host stalled in
	// does not decide the result. Microseconds.
	perOp := 1 / float64(nreq*wl.Batch)
	means := map[string]float64{}
	for _, rg := range rungs {
		var turns []float64
		for c := 0; c < ladderChunks; c++ {
			lo, hi := nreq*c/ladderChunks, nreq*(c+1)/ladderChunks
			turns = append(turns, mean(rg.durs[lo:hi])/1e3/float64(wl.Batch))
		}
		means[rg.name] = median(turns)
	}
	bs := attributeBackend(timed.Spans(), rungs[1].spans)
	rungs[1].spans = append(rungs[1].spans, bs.spans...)
	busy := float64(bs.inside) / 1e3 * perOp

	top := means[wl.Target]
	shares := []layerShare{
		{"oram.self_us", means["oram"]},
		{"backend.busy_us_per_op", busy},
		{"shard.self_us", means["shard"] - means["oram"] - busy},
		{"serve.self_us", means["store"] - means["shard"]},
		{"net.self_us", 0},
		{"cluster.self_us", 0},
	}
	if m, ok := means["client"]; ok {
		shares[4].us = m - means["store"]
	}
	if m, ok := means["cluster"]; ok {
		shares[5].us = m - means["client"]
	}
	// A share below zero is clamped, and what was clamped is the residual:
	// the part by which the shares then overshoot the top rung.
	var sum float64
	for i, s := range shares {
		shares[i].us = max(0, s.us)
		sum += shares[i].us
		res.set(s.name, shares[i].us, nreq)
	}
	residual := share(sum-top, top)
	if residual > ladderTolerance {
		res.problem("ladder: layer shares exceed the top rung by %.1f%%", residual*100)
	}
	res.set("ladder.top_us", top, nreq)
	res.set("ladder.residual_share", residual, len(shares))
	untraced := means[wl.Target+".untraced"]
	res.set("trace.overhead_share", share(top-untraced, untraced), nreq)

	res.set("oram.access_us", share(means["oram"]/perOp, float64(oramCalls)), int(oramCalls))
	res.set("oram.dram_lines_per_op", share(float64(oramLines), float64(oramCalls)), int(oramCalls))
	res.set("oram.stash_peak", float64(ring.StashPeak()), 1)
	res.set("backend.get_us", share(float64(bs.getNs)/1e3, float64(bs.gets)), bs.gets)
	res.set("backend.put_us", share(float64(bs.putNs)/1e3, float64(bs.puts)), bs.puts)
	res.set("backend.calls_per_op", float64(bs.gets+bs.puts)*perOp, bs.gets+bs.puts)
	res.set("backend.deferred_us_per_op", float64(bs.deferred)/1e3*perOp, nreq)
	res.set("backend.checkpoint_ms", share(float64(bs.checkpointNs)/1e6, float64(bs.checkpoints)), bs.checkpoints)

	return writeSpans(filepath.Join(outDir, "trace-"+wl.Name+".jsonl"), wl.Name, rungs)
}

// oramRung replays each request's distinct ids as engine accesses.
func oramRung(r *run, blocks uint64, ring **layers.Ring, lines, calls *int64) (*rung, error) {
	rg := &rung{name: "oram", traced: true, close: func() error { return nil }}
	g, err := layers.NewRing(blocks, r.seed)
	if err != nil {
		return rg, err
	}
	*ring = g
	for id := uint64(0); id < blocks; id++ {
		g.Access(id, true)
	}
	rg.do = func(i int, q *request, ids []uint64) error {
		for _, id := range ids {
			t0 := r.now()
			*lines += int64(g.Access(id, q.write))
			rg.spans = append(rg.spans, span{"oram", i, "oram.access", t0, r.now(), i})
			*calls++
		}
		return nil
	}
	return rg, nil
}

// shardRung replays each request's distinct ids through one shard over a
// timing wrapper around the engine's backend.
func shardRung(r *run, blocks uint64, outDir string, timed **layers.TimedBackend) (*rung, error) {
	rg := &rung{name: "shard", traced: true, close: func() error { return nil }}
	dir := ""
	if r.wl.durable() {
		var err error
		if dir, err = os.MkdirTemp(outDir, "ladder-shard-"); err != nil {
			return rg, err
		}
	}
	be, err := layers.OpenBackend(r.wl.Engine, dir)
	if err != nil {
		os.RemoveAll(dir)
		return rg, err
	}
	tb := layers.NewTimedBackend(be, r.now)
	*timed = tb
	sh, err := layers.NewShard(blocks, []byte("palermo-demo-key"), r.seed, tb)
	if err != nil {
		be.Close()
		os.RemoveAll(dir)
		return rg, err
	}
	rg.close = func() error {
		err := sh.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
		return err
	}
	buf := make([]byte, blockSize)
	for id := uint64(0); id < blocks; id++ {
		payload(buf, id, 1)
		if err := sh.Write(id, buf); err != nil {
			return rg, err
		}
	}
	tb.Record(true)
	rg.do = func(_ int, q *request, ids []uint64) error {
		for _, id := range ids {
			if q.write {
				rg.ver[id]++
				payload(buf, id, rg.ver[id])
				if err := sh.Write(id, buf); err != nil {
					return err
				}
				continue
			}
			b, err := sh.Read(id)
			if err != nil {
				return err
			}
			if err := checkExact(id, b, rg.ver[id]); err != nil {
				return err
			}
		}
		return nil
	}
	return rg, nil
}

// systemRung replays requests as the workload sends them against a
// one-shard instance of a serving target.
func systemRung(r *run, name, target string, traced bool, blocks uint64, outDir string) (*rung, error) {
	rg := &rung{name: name, traced: traced, close: func() error { return nil }}
	wl := *r.wl
	wl.Target = target
	sys, _, err := newSystem(&wl, blocks, 1, r.seed, outDir, make(versions, blocks))
	if err != nil {
		return rg, err
	}
	rg.close = sys.destroy
	buf := make([]byte, blockSize)
	rg.do = func(_ int, q *request, _ []uint64) error {
		switch {
		case q.write:
			id := q.ids[0]
			rg.ver[id]++
			payload(buf, id, rg.ver[id])
			return sys.tgt.Write(id, buf)
		case len(q.ids) == 1:
			b, err := sys.tgt.Read(q.ids[0])
			if err != nil {
				return err
			}
			return checkExact(q.ids[0], b, rg.ver[q.ids[0]])
		}
		bs, err := sys.tgt.ReadBatch(q.ids)
		if err != nil {
			return err
		}
		for i, id := range q.ids {
			if err := checkExact(id, bs[i], rg.ver[id]); err != nil {
				return err
			}
		}
		return nil
	}
	return rg, nil
}

// checkExact verifies a block read by the ladder's single caller: with no
// other writer, it must hold exactly the version last written.
func checkExact(id uint64, block []byte, want uint64) error {
	if len(block) != blockSize {
		return fmt.Errorf("block %d: %d bytes", id, len(block))
	}
	var exp [blockSize]byte
	payload(exp[:], id, want)
	if string(block) != string(exp[:]) {
		return fmt.Errorf("block %d: not the payload of version %d", id, want)
	}
	return nil
}

// backendStats is what the shard rung's backend spans add up to.
type backendStats struct {
	spans                   []span
	inside, deferred        int64 // ns inside, and after, the request a call started in
	gets, puts, checkpoints int
	getNs, putNs            int64
	checkpointNs            int64
}

// attributeBackend makes each backend call a child of the shard request
// whose interval contains its start. The part of the call inside that
// interval is time the request waited for (or overlapped with) the
// backend; the part after it, and calls that start between requests, ran
// deferred on the shard's I/O goroutine.
func attributeBackend(calls []layers.BackendSpan, reqs []span) backendStats {
	var st backendStats
	for _, c := range calls {
		d := c.End - c.Start
		switch c.Name {
		case "backend.get":
			st.gets, st.getNs = st.gets+1, st.getNs+d
		case "backend.put":
			st.puts, st.putNs = st.puts+1, st.putNs+d
		case "backend.checkpoint":
			st.checkpoints, st.checkpointNs = st.checkpoints+1, st.checkpointNs+d
		}
		// The last request that started at or before the call.
		i := sort.Search(len(reqs), func(i int) bool { return reqs[i].start > c.Start }) - 1
		if i < 0 {
			continue
		}
		q := reqs[i]
		in := max(0, min(c.End, q.end)-c.Start)
		st.inside += in
		st.deferred += d - in
		st.spans = append(st.spans, span{"shard", q.req, c.Name, c.Start, c.End, q.req})
	}
	return st
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path, workload string, rungs []*rung) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, rg := range rungs {
		for _, s := range rg.spans {
			line = append(line[:0], `{"workload":"`...)
			line = append(line, workload...)
			line = append(line, `","rung":"`...)
			line = append(line, s.rung...)
			line = append(line, `","req":`...)
			line = strconv.AppendInt(line, int64(s.req), 10)
			line = append(line, `,"name":"`...)
			line = append(line, s.name...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, "}\n"...)
			w.Write(line)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
