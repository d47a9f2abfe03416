package palermo

// Metrics is the plain-text operability surface: a /metrics-style HTTP
// handler exporting the serving path's counters and gauges in the
// Prometheus text exposition format (counter/gauge lines only — no
// client library, no dependency). palermo-server mounts it with
// -metrics addr; embedders can mount it on their own mux.
//
// Everything exported here is derived from snapshots the store and its
// server already expose (Stats/Traffic/QueueDepths/FsyncLag/NetStats) —
// the endpoint observes exactly what an in-process caller can, so scraping
// adds nothing to the §6 adversary's view beyond the traffic of the scrape
// itself.

import (
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"
	"time"
)

// MetricsVars supplies the snapshot sources for a metrics handler. Any
// nil field's metrics are simply omitted, so one handler shape serves
// both the standalone store and a cluster node (whose Stats method
// returns the wire shape instead of ServiceStats).
type MetricsVars struct {
	// Service returns the service-layer snapshot: operation counts,
	// dedup hits, shed counts, and the queue/exec latency split.
	Service func() ServiceStats
	// Traffic returns the engine counters (ORAM and DRAM traffic,
	// tree-top hits).
	Traffic func() TrafficReport
	// QueueDepths returns each hosted shard's instantaneous queue
	// occupancy, keyed by shard index.
	QueueDepths func() map[int]int
	// FsyncLag returns the durable backends' commit-path fsync count and
	// cumulative wait (the WAL fsync lag).
	FsyncLag func() (uint64, time.Duration)
	// Net returns the network server's reply-path counters
	// (Server.NetStats): response frames over socket writes is the
	// coalescing factor behind a throughput change.
	Net func() ServerNetStats
}

// NewMetricsHandler builds the /metrics handler over v.
func NewMetricsHandler(v MetricsVars) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		writeMetrics(&b, v)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(b.String()))
	})
}

func writeMetrics(b *strings.Builder, v MetricsVars) {
	counter := func(name string, val uint64) {
		fmt.Fprintf(b, "# TYPE %s counter\n%s %d\n", name, name, val)
	}
	gauge := func(name string, val float64) {
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %g\n", name, name, val)
	}
	if v.Service != nil {
		ss := v.Service()
		counter("palermo_reads_total", ss.Reads)
		counter("palermo_writes_total", ss.Writes)
		counter("palermo_sheds_total", ss.Sheds)
		counter("palermo_dedup_hits_total", ss.DedupHits)
		lat := func(name string, l LatencySummary) {
			fmt.Fprintf(b, "# TYPE %s summary\n", name)
			fmt.Fprintf(b, "%s{quantile=\"0.5\"} %g\n", name, float64(l.P50Us)/1e6)
			fmt.Fprintf(b, "%s{quantile=\"0.99\"} %g\n", name, float64(l.P99Us)/1e6)
			fmt.Fprintf(b, "%s_sum %g\n", name, l.MeanUs*float64(l.N)/1e6)
			fmt.Fprintf(b, "%s_count %d\n", name, l.N)
		}
		lat("palermo_read_latency_seconds", ss.ReadLat)
		lat("palermo_write_latency_seconds", ss.WriteLat)
		lat("palermo_queue_wait_seconds", ss.QueueLat)
		lat("palermo_exec_latency_seconds", ss.ExecLat)
	}
	if v.QueueDepths != nil {
		depths := v.QueueDepths()
		fmt.Fprintf(b, "# TYPE palermo_queue_depth gauge\n")
		for _, s := range slices.Sorted(maps.Keys(depths)) {
			fmt.Fprintf(b, "palermo_queue_depth{shard=\"%d\"} %d\n", s, depths[s])
		}
	}
	if v.Traffic != nil {
		tr := v.Traffic()
		counter("palermo_engine_reads_total", tr.Reads)
		counter("palermo_engine_writes_total", tr.Writes)
		counter("palermo_dram_reads_total", tr.DRAMReads)
		counter("palermo_dram_writes_total", tr.DRAMWrites)
		counter("palermo_treetop_hits_total", tr.TreeTopHits)
		gauge("palermo_stash_peak", float64(tr.StashPeak))
		gauge("palermo_amplification_factor", tr.AmplificationFactor)
	}
	if v.FsyncLag != nil {
		n, d := v.FsyncLag()
		counter("palermo_fsyncs_total", n)
		gauge("palermo_fsync_wait_seconds_total", d.Seconds())
	}
	if v.Net != nil {
		ns := v.Net()
		counter("palermo_net_response_frames_total", ns.ResponseFrames)
		counter("palermo_net_response_writes_total", ns.ResponseWrites)
		gauge("palermo_net_connections", float64(ns.Connections))
	}
}

// MetricsServer is a started operability listener (ServeMetrics).
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the listener's bound address (useful with ":0").
func (m *MetricsServer) Addr() net.Addr { return m.ln.Addr() }

// Close stops the listener. In-flight scrapes are abandoned — the
// operability surface needs no graceful drain.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// ServeMetrics binds addr and serves /metrics from v in a background
// goroutine. With pprofOn, the standard net/http/pprof profiling
// handlers are mounted under /debug/pprof/ on the same listener — keep
// the address private; profiles expose internals far beyond the
// metrics page.
func ServeMetrics(addr string, v MetricsVars, pprofOn bool) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("palermo: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	h := NewMetricsHandler(v)
	mux.Handle("/metrics", h)
	mux.Handle("/", h) // a bare scrape of the root works too
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return &MetricsServer{ln: ln, srv: srv}, nil
}
