package palermo

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palermo/internal/cluster"
)

// writeCountingListener counts the Write calls the server makes on every
// connection it accepts. Server and client write a socket with plain
// Write calls (the client through a bufio.Writer's Flush), so each is one
// write(2) on the loopback socket.
type writeCountingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCountingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCountingConn{nc, l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// blockAPI is the per-op surface Client and ClusterClient share.
type blockAPI interface {
	Read(id uint64) ([]byte, error)
	Write(id uint64, data []byte) error
	WriteBatch(ids []uint64, blocks [][]byte) error
}

// The traffic of the repository benchmark's net-wal and cluster-wal
// workloads (benchmark/spec.go): 2^16 blocks on two shards, single-block
// ops, 90 % reads. A closed phase runs 8 callers back to back; a paced
// phase runs 2 callers, each sending a burst of 8 concurrent ops every
// 2 ms, the second caller offset by half a tick.
const (
	netBlocks       = 1 << 16
	netShards       = 2
	netCallers      = 8
	netPacedCallers = 2
	netBurst        = 8
	netTick         = 2 * time.Millisecond
)

// netZipf draws ids as the benchmark does (benchmark/gen.go): ranks from
// a θ = 0.99 Zipf by the constant-time method of Gray et al., spread over
// the power-of-two id space by an odd multiplier.
type netZipf struct {
	n, alpha, zetan, eta, half float64
}

func newNetZipf(n uint64) *netZipf {
	const theta = 0.99
	var zetan float64
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &netZipf{
		n: float64(n), alpha: 1 / (1 - theta), zetan: zetan,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half: math.Pow(0.5, theta),
	}
}

func (z *netZipf) id(r *rand.Rand) uint64 {
	var rank uint64
	u := r.Float64()
	switch uz := u * z.zetan; {
	case uz < 1:
	case uz < 1+z.half:
		rank = 1
	default:
		rank = uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	return (rank * 0x9e3779b97f4a7c15) & (netBlocks - 1)
}

// sendNetOp issues one op of the traffic: a write one time in ten, else a read.
func sendNetOp(api blockAPI, z *netZipf, r *rand.Rand, data []byte) error {
	id := z.id(r)
	if r.Intn(10) == 0 {
		return api.Write(id, data)
	}
	_, err := api.Read(id)
	return err
}

// prefillNet writes every block, 256 a call, as the benchmark's set-up does.
func prefillNet(b *testing.B, api blockAPI) {
	const chunk = 256
	ids, blocks := make([]uint64, chunk), make([][]byte, chunk)
	buf := make([]byte, chunk*BlockSize)
	for i := range blocks {
		blocks[i] = buf[i*BlockSize:][:BlockSize]
	}
	for base := uint64(0); base < netBlocks; base += chunk {
		for i := range ids {
			ids[i] = base + uint64(i)
		}
		if err := api.WriteBatch(ids, blocks); err != nil {
			b.Fatal(err)
		}
	}
}

// closedNetOps issues n ops from netCallers goroutines, each sending its
// next op when the previous one returns, and returns n.
func closedNetOps(b *testing.B, api blockAPI, z *netZipf, seed int64, n int) int {
	var wg sync.WaitGroup
	errs := make(chan error, netCallers)
	for c := range netCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(c)))
			data := make([]byte, BlockSize)
			for i := c; i < n; i += netCallers {
				if err := sendNetOp(api, z, r, data); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	return n
}

// pacedNetOps issues about n ops from netPacedCallers callers on the tick
// schedule: at each due time a caller hands one op to each of its netBurst
// workers and waits for all of them; a tick already due is sent at once.
// It returns the number of ops issued.
func pacedNetOps(b *testing.B, api blockAPI, z *netZipf, seed int64, n int) int {
	ticks := max(1, n/(netPacedCallers*netBurst))
	start := time.Now().Add(netTick)
	var wg sync.WaitGroup
	errs := make(chan error, netPacedCallers*netBurst)
	for c := range netPacedCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := make([]chan struct{}, netBurst)
			var done, workers sync.WaitGroup
			for w := range jobs {
				jobs[w] = make(chan struct{})
				workers.Add(1)
				go func() {
					defer workers.Done()
					r := rand.New(rand.NewSource(seed + int64(c*netBurst+w)))
					data := make([]byte, BlockSize)
					for range jobs[w] {
						if err := sendNetOp(api, z, r, data); err != nil {
							select {
							case errs <- err:
							default:
							}
						}
						done.Done()
					}
				}()
			}
			offset := netTick * time.Duration(c) / netPacedCallers
			for t := range ticks {
				time.Sleep(time.Until(start.Add(offset + time.Duration(t)*netTick)))
				done.Add(netBurst)
				for w := range jobs {
					jobs[w] <- struct{}{}
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
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	return ticks * netPacedCallers * netBurst
}

// BenchmarkNetWrites reports the server's and the client's socket writes
// per op on the traffic of the repository benchmark's net-wal workload
// ("net": a Client with min(2, NumCPU) connections to a two-shard WAL
// store) and cluster-wal workload ("cluster": a ClusterClient to two
// one-shard WAL nodes), in its closed and its paced phase. Each target is
// prefilled and warmed by 5 000 closed ops first. It differs from the
// benchmark in its random streams (math/rand, not the run seed's
// splitmix), in sleeping with time.Sleep, in timing none of its ops, and in
// running no reference-server bursts between rounds.
//
//	go test -run '^$' -bench NetWrites -benchtime 40000x .
func BenchmarkNetWrites(b *testing.B) {
	var clientWrites atomic.Int64
	defer func(dial func(*net.Dialer, string) (net.Conn, error)) { dialTCP = dial }(dialTCP)
	dialTCP = func(d *net.Dialer, addr string) (net.Conn, error) {
		nc, err := d.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return writeCountingConn{nc, &clientWrites}, nil
	}
	listen := func(writes *atomic.Int64) (net.Listener, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		return writeCountingListener{ln, writes}, ln.Addr().String()
	}
	serve := func(srv *Server, ln net.Listener) {
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		b.Cleanup(func() { srv.Close(); <-done })
	}
	z := newNetZipf(netBlocks)
	phases := func(b *testing.B, api blockAPI, writes *atomic.Int64) {
		prefillNet(b, api)
		closedNetOps(b, api, z, 1, 5000)
		for i, ph := range []struct {
			name  string
			drive func(*testing.B, blockAPI, *netZipf, int64, int) int
		}{{"closed", closedNetOps}, {"paced", pacedNetOps}} {
			b.Run(ph.name, func(b *testing.B) {
				server, client := writes.Load(), clientWrites.Load()
				b.ResetTimer()
				ops := float64(ph.drive(b, api, z, int64(100*(i+1)), b.N))
				b.StopTimer()
				b.ReportMetric(float64(writes.Load()-server)/ops, "server_writes/op")
				b.ReportMetric(float64(clientWrites.Load()-client)/ops, "client_writes/op")
			})
		}
	}

	b.Run("net", func(b *testing.B) {
		var writes atomic.Int64
		st, err := NewShardedStore(ShardedStoreConfig{Blocks: netBlocks, Shards: netShards, Engine: BackendWAL, Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		srv, err := NewServer(st, ServerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		ln, addr := listen(&writes)
		serve(srv, ln)
		cl, err := Dial(addr, ClientConfig{Conns: min(netShards, runtime.NumCPU())})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cl.Close() })
		phases(b, cl, &writes)
	})

	b.Run("cluster", func(b *testing.B) {
		var writes atomic.Int64
		lns, addrs := make([]net.Listener, netShards), make([]string, netShards)
		for i := range lns {
			lns[i], addrs[i] = listen(&writes)
		}
		man, err := cluster.EvenSplit(netBlocks, netShards, addrs)
		if err != nil {
			b.Fatal(err)
		}
		for i, addr := range addrs {
			node, err := NewClusterNode(ClusterNodeConfig{Addr: addr, Store: ShardedStoreConfig{
				Engine: BackendWAL, Dir: fmt.Sprintf("%s/node-%d", b.TempDir(), i)}}, man)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { node.Close() })
			srv, err := NewClusterServer(node, ServerConfig{})
			if err != nil {
				b.Fatal(err)
			}
			serve(srv, lns[i])
		}
		cc, err := DialCluster(addrs, ClientConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cc.Close() })
		phases(b, cc, &writes)
	})
}
