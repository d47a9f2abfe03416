package palermo

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"palermo/internal/rng"
	"palermo/internal/security"
)

// TestServingLeafUniformityWithCachePrefetch is the live-path counterpart
// of TestSecurityEndToEnd: with the tree-top cache pinned, every shard's
// exposed leaf stream must remain statistically uniform under a skewed
// (Zipf) workload — the cache only absorbs traffic above a fixed level
// boundary, so it may not leave a workload-shaped dent in the path
// selections.
func TestServingLeafUniformityWithCachePrefetch(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{
		Blocks: 1 << 12, Shards: 2, Seed: 11,
		TreeTopLevels: 4,
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
	if tr.TreeTopHits == 0 {
		t.Fatal("the tree-top cache under audit never absorbed a line")
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
			t.Fatalf("shard %d leaf stream rejected as non-uniform with the tree-top cache pinned: %v",
				trace.Shard, leaf)
		}
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
