package palermo

// Tests for the operability surface: the /metrics exposition must carry
// the serving path's counters (including shed counts and the queue/exec
// split), per-shard queue depths, and — on durable stores — the WAL
// fsync lag; pprof mounts only when asked.

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"palermo/internal/cluster"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 12, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := uint64(0); i < 32; i++ {
		if err := st.Write(i, block(byte(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := ServeMetrics("127.0.0.1:0", MetricsVars{
		Service:     st.Stats,
		Traffic:     st.Traffic,
		QueueDepths: st.QueueDepths,
		FsyncLag:    st.FsyncLag,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	body := scrape(t, "http://"+ms.Addr().String()+"/metrics")
	for _, want := range []string{
		"palermo_reads_total 32",
		"palermo_writes_total 32",
		"palermo_sheds_total 0",
		"palermo_queue_wait_seconds{quantile=\"0.99\"}",
		"palermo_exec_latency_seconds_count",
		"palermo_queue_depth{shard=\"0\"}",
		"palermo_queue_depth{shard=\"1\"}",
		"palermo_dram_reads_total",
		"palermo_amplification_factor",
		"palermo_fsyncs_total 0", // in-memory store: no commit-path fsyncs
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, body)
		}
	}
	// pprof is opt-in: without the flag the endpoint must not exist.
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + ms.Addr().String() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// "/" falls through to the metrics page, so pprof paths answer with
	// the exposition text rather than a profile; assert no pprof output.
	if resp.Header.Get("Content-Type") == "text/plain; charset=utf-8" &&
		resp.ContentLength > 0 && resp.Header.Get("X-Content-Type-Options") != "" {
		t.Fatal("pprof mounted without being enabled")
	}
}

// TestMetricsClusterNodeQueueDepthLabels: a cluster node labels each queue
// depth with the shard it belongs to, not with its position among the
// shards the node owns. Node b of an even two-node split owns shard 1 only.
func TestMetricsClusterNodeQueueDepthLabels(t *testing.T) {
	man, err := cluster.EvenSplit(1<<10, 2, []string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewClusterNode(ClusterNodeConfig{Addr: "b:1"}, man)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	var b strings.Builder
	writeMetrics(&b, MetricsVars{QueueDepths: node.QueueDepths})
	body := b.String()
	if !strings.Contains(body, `palermo_queue_depth{shard="1"}`) || strings.Contains(body, `shard="0"`) {
		t.Fatalf("a node owning only shard 1 exported:\n%s", body)
	}
}

func TestMetricsShedAndFsyncCounters(t *testing.T) {
	dir := t.TempDir()
	st, err := NewShardedStore(ShardedStoreConfig{
		Blocks: 1 << 10, Shards: 1, Dir: dir, Engine: BackendWAL,
		AdmissionDeadline: 1, // sheds everything
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := uint64(0); i < 8; i++ {
		st.Write(i, block(1)) // all shed: ErrRetry, ignored here on purpose
	}
	ms, err := ServeMetrics("127.0.0.1:0", MetricsVars{
		Service: st.Stats, FsyncLag: st.FsyncLag,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	body := scrape(t, "http://"+ms.Addr().String()+"/metrics")
	if !strings.Contains(body, "palermo_sheds_total 8") {
		t.Fatalf("shed counter missing from scrape:\n%s", body)
	}
	// With pprof enabled the index answers under /debug/pprof/.
	idx := scrape(t, "http://"+ms.Addr().String()+"/debug/pprof/")
	if !strings.Contains(idx, "pprof") {
		t.Fatal("pprof index not mounted despite being enabled")
	}
}

// TestFsyncLagCountsCommits: a durable store that actually commits must
// report a growing commit-path fsync count and a nonzero cumulative wait.
func TestFsyncLagCountsCommits(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{
		Blocks: 1 << 10, Shards: 1, Dir: t.TempDir(), Engine: BackendWAL,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := uint64(0); i < 16; i++ {
		if err := st.Write(i, block(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	n, wait := st.FsyncLag()
	if n == 0 || wait <= 0 {
		t.Fatalf("committing WAL store reported %d fsyncs, %v wait", n, wait)
	}
}
