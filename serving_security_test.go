package palermo

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"palermo/internal/rng"
	"palermo/internal/security"
)

// TestServingLeafUniformityWithCachePrefetch is the live-path counterpart
// of TestSecurityEndToEnd: with the tree-top cache pinned and the
// batch-admission prefetch planner on, every shard's exposed leaf stream
// must remain statistically uniform under a skewed (Zipf) workload — the
// cache only absorbs traffic above a fixed level boundary and the planner
// only reorders when fetches are issued, so neither may leave a
// workload-shaped dent in the path selections.
func TestServingLeafUniformityWithCachePrefetch(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{
		Blocks: 1 << 12, Shards: 2, Seed: 11,
		PipelineDepth: 4, TreeTopLevels: 4, Prefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.EnableTraces()
	r := rng.New(5)
	z := rng.NewZipf(r, 1<<12, 0.99)
	ids := make([]uint64, 0, 8)
	for i := 0; i < 700; i++ {
		if r.Uint64()%10 == 0 {
			if err := st.Write(z.Next(), block(byte(i))); err != nil {
				t.Fatal(err)
			}
			continue
		}
		ids = ids[:0]
		for j := 0; j < 8; j++ {
			ids = append(ids, z.Next())
		}
		if _, err := st.ReadBatch(ids); err != nil {
			t.Fatal(err)
		}
	}
	traces := st.LeafTraces()
	tr := st.Traffic()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.TreeTopHits == 0 || tr.PrefetchUsed == 0 {
		t.Fatalf("features under audit never fired: %d tree-top hits, %d prefetches used",
			tr.TreeTopHits, tr.PrefetchUsed)
	}
	if len(traces) != 2 {
		t.Fatalf("recorded %d shard traces, want 2", len(traces))
	}
	for _, trace := range traces {
		if len(trace.Leaves) < 500 {
			t.Fatalf("shard %d recorded only %d leaf observations", trace.Shard, len(trace.Leaves))
		}
		leaf, err := security.AnalyzeLeaves(trace.Leaves, trace.NumLeaves, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !leaf.Uniform(0.001) {
			t.Fatalf("shard %d leaf stream rejected as non-uniform with cache+prefetch on: %v",
				trace.Shard, leaf)
		}
	}
}

// TestShardedStorePrefetchDuplicateReads drives the dedup × prefetch
// interaction through the real engine under concurrency (run with -race):
// batches stuffed with duplicate hot ids, whose paths the planner
// prefetches, must still collapse each distinct id onto one engine access
// — dedup hits stay high, prefetches are claimed not leaked, and every
// waiter reads the freshest payload.
func TestShardedStorePrefetchDuplicateReads(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{
		Blocks: 1 << 10, Shards: 2, Seed: 3,
		PipelineDepth: 4, TreeTopLevels: 2, Prefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := block(0x5A)
	if err := st.Write(42, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c + 100))
			ids := make([]uint64, 0, 16)
			for i := 0; i < 60; i++ {
				ids = ids[:0]
				for j := 0; j < 16; j++ {
					if j%2 == 0 {
						ids = append(ids, 42) // hot duplicate in every batch
					} else {
						ids = append(ids, r.Uint64n(1<<10))
					}
				}
				got, err := st.ReadBatch(ids)
				if err != nil {
					t.Error(err)
					return
				}
				for k, id := range ids {
					if id == 42 && !bytes.Equal(got[k], want) {
						t.Errorf("duplicate hot read %d returned a stale payload", k)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	ss := st.Stats()
	tr := st.Traffic()
	// Each 16-id batch carries 8 copies of id 42; at least those 7
	// duplicates per batch must dedup (4 clients × 60 batches × 7).
	if ss.DedupHits < 4*60*7 {
		t.Fatalf("dedup hits %d with prefetch on, want >= %d", ss.DedupHits, 4*60*7)
	}
	if tr.PrefetchUsed == 0 {
		t.Fatal("planner never delivered a used prefetch")
	}
	if tr.PrefetchIssued < tr.PrefetchUsed+tr.PrefetchStale {
		t.Fatalf("prefetch accounting leaked: issued %d < used %d + stale %d",
			tr.PrefetchIssued, tr.PrefetchUsed, tr.PrefetchStale)
	}
}

// TestNetMetricsPublicShape: the network counters /metrics exports are a
// function of public quantities only. Two op streams of identical public
// shape — the same sequence of op kinds and batch sizes — over different
// block ids and payloads must export the same
// palermo_net_response_frames_total (how many replies share a socket write
// additionally depends on arrival timing, so writes_total is only required
// to be present and no larger).
func TestNetMetricsPublicShape(t *testing.T) {
	frames := func(idBase uint64, fill byte) string {
		st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 12, Shards: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		srv, err := NewServer(st, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		defer func() {
			srv.Close()
			<-served
		}()
		cl, err := Dial(ln.Addr().String(), ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := uint64(0); i < 40; i++ {
			id := idBase + i*3
			switch i % 4 {
			case 0:
				err = cl.Write(id, block(fill+byte(i)))
			case 1, 2:
				_, err = cl.Read(id)
			case 3:
				_, err = cl.ReadBatch([]uint64{id, id + 1, id, idBase})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		writeMetrics(&b, MetricsVars{Net: srv.NetStats})
		var out []string
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "palermo_net_") {
				out = append(out, line)
			}
		}
		if len(out) != 3 || !strings.HasPrefix(out[0], "palermo_net_response_frames_total ") ||
			!strings.HasPrefix(out[1], "palermo_net_response_writes_total ") || out[2] != "palermo_net_connections 1" {
			t.Fatalf("network metrics missing from the exposition:\n%s", b.String())
		}
		var nf, nw uint64
		fmt.Sscanf(out[0], "palermo_net_response_frames_total %d", &nf)
		fmt.Sscanf(out[1], "palermo_net_response_writes_total %d", &nw)
		if nw == 0 || nw > nf {
			t.Fatalf("%d response frames in %d writes", nf, nw)
		}
		return out[0]
	}
	a, b := frames(0, 0x10), frames(2000, 0x90)
	if a != b {
		t.Fatalf("same public shape, different block ids: %q vs %q", a, b)
	}
	if a != "palermo_net_response_frames_total 41" { // the handshake and 40 ops
		t.Fatalf("%q, want one response frame per request frame (41)", a)
	}
}
