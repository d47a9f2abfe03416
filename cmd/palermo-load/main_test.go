package main

import (
	"fmt"
	"strings"
	"testing"

	"palermo"
	"palermo/internal/cluster"
	"palermo/internal/loadgen"
)

// clobbered is the stamped id the tests overwrite before verifying again.
const clobbered = 517

// wantDiverged fails unless err names clobbered as a stamped block that
// did not read back.
func wantDiverged(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("verify passed with stamped block %d overwritten", clobbered)
	}
	if want := fmt.Sprintf("stamped block %d ", clobbered); !strings.Contains(err.Error(), want) {
		t.Fatalf("verify error %q does not name block %d", err, clobbered)
	}
}

// TestVerifyStore: a stamped durable store verifies after a restart, and
// one overwritten stamped block fails the verify by its id.
func TestVerifyStore(t *testing.T) {
	cfg := palermo.ShardedStoreConfig{
		Blocks: 1 << 12, Shards: 2, Seed: 9, Dir: t.TempDir(), Engine: palermo.BackendWAL,
	}
	st, err := palermo.NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := stampTarget(st, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := verifyDir(cfg); err != nil {
		t.Fatalf("verify of a freshly stamped store: %v", err)
	}

	if st, err = palermo.NewShardedStore(cfg); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(clobbered, make([]byte, palermo.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wantDiverged(t, verifyDir(cfg))
}

// TestVerifyClusterNode: a cluster node's directory verifies as that node.
// The manifest gives it two of four shards, so half the stamped ids live
// elsewhere and must be skipped, not read; an overwritten one it owns
// fails the verify by its id. The store flags' geometry differs from the
// manifest's and must not matter.
func TestVerifyClusterNode(t *testing.T) {
	const addr, blocks = "127.0.0.1:7080", 1 << 12
	man, err := cluster.EvenSplit(blocks, 4, []string{addr, "127.0.0.1:7081"})
	if err != nil {
		t.Fatal(err)
	}
	store := palermo.ShardedStoreConfig{Seed: 9, Dir: t.TempDir(), Engine: palermo.BackendWAL}
	write := func(stamp bool) {
		t.Helper()
		node, err := palermo.NewClusterNode(palermo.ClusterNodeConfig{Addr: addr, Store: store}, man)
		if err != nil {
			t.Fatal(err)
		}
		if !node.Owns(clobbered) {
			t.Fatalf("node does not own block %d; pick another", clobbered)
		}
		if stamp {
			owned := uint64(0)
			for id := range stampCount(blocks) {
				if node.Owns(id) {
					if err := node.Write(id, stampPayload(store.Seed, id)); err != nil {
						t.Fatal(err)
					}
					owned++
				}
			}
			if owned == 0 || owned == stampCount(blocks) {
				t.Fatalf("node owns %d of %d stamped ids; the filter needs some of each", owned, stampCount(blocks))
			}
		} else if err := node.Write(clobbered, make([]byte, palermo.BlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := node.Close(); err != nil {
			t.Fatal(err)
		}
	}
	flags := store
	flags.Blocks, flags.Shards = 1<<18, 2 // the standalone flag defaults

	write(true)
	if err := verifyDir(flags); err != nil {
		t.Fatalf("verify of a freshly stamped node: %v", err)
	}
	write(false)
	wantDiverged(t, verifyDir(flags))
}

// TestShedOpsCountsOps: the record's shed_ops counts shed ops, not shed
// calls. Under an admission deadline nothing can meet, every op of a
// 4-id ReadBatch is shed, so all 200 ops count.
func TestShedOpsCountsOps(t *testing.T) {
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{
		Blocks: 1 << 12, Shards: 2, AdmissionDeadline: 1, // 1ns: sheds everything
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	o := loadgen.Options{Clients: 2, Ops: 200, ReadRatio: 0.5, Batch: 4, Seed: 5}
	res, err := loadgen.Run(st, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := loadMetrics(res, o)["shed_ops"]; got != 200 {
		t.Fatalf("shed_ops = %v, want all 200 ops", got)
	}
}
