package palermo

import (
	"fmt"
	"strings"
	"testing"

	"palermo/internal/cluster"
	"palermo/internal/oram"
	"palermo/internal/shard"
)

// TestConstructorParity feeds every invalid and boundary configuration
// row of TestStoreConfigValidation, TestShardedStoreConfigValidation and
// the durable validation tests to all three constructors and demands one
// verdict: a configuration is either a store or an error, whichever front
// end it is handed to. (Rows naming fields StoreConfig lacks skip NewStore.)
func TestConstructorParity(t *testing.T) {
	rows := []struct {
		name    string
		cfg     ShardedStoreConfig
		dir     bool // give each constructor its own fresh Dir
		sharded bool // uses fields StoreConfig does not have
		ok      bool
	}{
		{name: "Blocks overflow", cfg: ShardedStoreConfig{Blocks: MaxBlocks * 4}},
		{name: "Blocks just past cap", cfg: ShardedStoreConfig{Blocks: MaxBlocks + 1}},
		{name: "Key short", cfg: ShardedStoreConfig{Blocks: 1 << 10, Key: []byte("bad")}},
		{name: "Key off-size", cfg: ShardedStoreConfig{Blocks: 1 << 10, Key: make([]byte, 17)}},
		{name: "Key oversize", cfg: ShardedStoreConfig{Blocks: 1 << 10, Key: make([]byte, 64)}},
		{name: "Engine unknown", cfg: ShardedStoreConfig{Blocks: 1 << 10, Engine: "etcd"}},
		{name: "Engine unknown with Dir", cfg: ShardedStoreConfig{Blocks: 1 << 10, Engine: "tape"}, dir: true},
		{name: "Engine memory with Dir", cfg: ShardedStoreConfig{Blocks: 1 << 10, Engine: BackendMemory}, dir: true},
		{name: "bare Dir, no engine", cfg: ShardedStoreConfig{Blocks: 1 << 10}, dir: true},
		{name: "Engine wal without Dir", cfg: ShardedStoreConfig{Blocks: 1 << 10, Engine: BackendWAL}},
		{name: "Engine blockfile without Dir", cfg: ShardedStoreConfig{Blocks: 1 << 10, Engine: BackendBlockfile}},
		{name: "Shards negative", cfg: ShardedStoreConfig{Blocks: 1 << 10, Shards: -1}, sharded: true},
		{name: "Shards beyond MaxShards", cfg: ShardedStoreConfig{Blocks: 1 << 10, Shards: MaxShards + 1}, sharded: true},
		{name: "Shards exceed Blocks", cfg: ShardedStoreConfig{Blocks: 2, Shards: 4}, sharded: true},
		{name: "QueueDepth negative", cfg: ShardedStoreConfig{Blocks: 1 << 10, QueueDepth: -1}, sharded: true},
		// Refused by arithmetic before any shard is built: every front end's
		// shard (1 for NewStore, 4 by default otherwise) is past the size
		// whose checkpoint always fits one sealed blob.
		{name: "durable shard past the sealable size", cfg: ShardedStoreConfig{Blocks: 4 * (shard.MaxSealableBlocks() + 1), Engine: BackendWAL}, dir: true},
		// Refused the same way on the memory engine: the shard's ORAM
		// buckets store block ids in 32 bits.
		{name: "memory shard past the block-id limit", cfg: ShardedStoreConfig{Blocks: 4 * (oram.MaxLevelBlocks + 1)}},

		{name: "zero value defaults", ok: true},
		{name: "Key AES-128", cfg: ShardedStoreConfig{Blocks: 1 << 10, Key: make([]byte, 16)}, ok: true},
		{name: "Key AES-192", cfg: ShardedStoreConfig{Blocks: 1 << 10, Key: make([]byte, 24)}, ok: true},
		{name: "Key AES-256", cfg: ShardedStoreConfig{Blocks: 1 << 10, Key: make([]byte, 32)}, ok: true},
		{name: "CheckpointEvery negative disables", cfg: ShardedStoreConfig{Blocks: 1 << 10, Engine: BackendWAL, CheckpointEvery: -1}, dir: true, ok: true},
		{name: "GroupCommit negative defaults", cfg: ShardedStoreConfig{Blocks: 1 << 10, Engine: BackendWAL, GroupCommit: -1}, dir: true, ok: true},
		{name: "GroupCommit synchronous", cfg: ShardedStoreConfig{Blocks: 1 << 10, Engine: BackendWAL, GroupCommit: 1}, dir: true, ok: true},
		{name: "Engine blockfile with Dir", cfg: ShardedStoreConfig{Blocks: 1 << 10, Engine: BackendBlockfile}, dir: true, ok: true},
		{name: "Shards equal Blocks", cfg: ShardedStoreConfig{Blocks: 8, Shards: 8}, sharded: true, ok: true},
		{name: "QueueDepth explicit", cfg: ShardedStoreConfig{Blocks: 1 << 10, QueueDepth: 1}, sharded: true, ok: true},
	}
	type closer interface{ Close() error }
	const addr = "node-a:7070"
	for _, row := range rows {
		withDir := func() ShardedStoreConfig {
			c := row.cfg
			if row.dir {
				c.Dir = t.TempDir()
			}
			return c
		}
		builds := map[string]func() (closer, error){
			"NewShardedStore": func() (closer, error) { return NewShardedStore(withDir()) },
			"NewClusterNode": func() (closer, error) {
				// The manifest carries the geometry the row asks for (the
				// store defaults when it asks for none), all on one node.
				c := withDir()
				man := &cluster.Manifest{Epoch: 1, Blocks: c.Blocks, Shards: uint32(c.Shards)}
				if man.Blocks == 0 {
					man.Blocks = 1 << 20
				}
				if c.Shards == 0 {
					man.Shards = 4
				}
				man.Ranges = []cluster.Range{{From: 0, To: man.Shards, Addr: addr}}
				return NewClusterNode(ClusterNodeConfig{Addr: addr, Store: c}, man)
			},
		}
		if !row.sharded {
			builds["NewStore"] = func() (closer, error) {
				c := withDir()
				return NewStore(StoreConfig{
					Blocks: c.Blocks, Key: c.Key, Seed: c.Seed, Engine: c.Engine, Dir: c.Dir,
					CheckpointEvery: c.CheckpointEvery, GroupCommit: c.GroupCommit,
				})
			}
		}
		for name, build := range builds {
			st, err := build()
			if err == nil {
				st.Close()
			}
			if (err == nil) != row.ok {
				t.Errorf("%s: %s accepted = %v, want %v (err: %v)", row.name, name, err == nil, row.ok, err)
			}
		}
	}
}

// TestMemoryShardBlockLimit: a memory shard's engine stores block ids in
// 32 bits, so NewShardedStore refuses a shard of more than 2^32-2 blocks,
// naming the limit and the way out, and accepts one at the limit by
// arithmetic alone (the refusal comes before any shard is built).
func TestMemoryShardBlockLimit(t *testing.T) {
	const limit = oram.MaxLevelBlocks
	for _, cfg := range []ShardedStoreConfig{
		{Blocks: limit + 1, Shards: 1},
		{Blocks: 1 << 33, Shards: 2},
		{Blocks: MaxBlocks},
	} {
		st, err := NewShardedStore(cfg)
		if err == nil {
			st.Close()
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at most %d blocks", uint64(limit))) || !strings.Contains(err.Error(), "raise Shards") {
			t.Errorf("%d blocks over %d shards: %v, want a refusal naming the %d-block limit and saying raise Shards", cfg.Blocks, cfg.Shards, err, uint64(limit))
		}
	}
	c := ShardedStoreConfig{Blocks: 2 * limit, Shards: 2}
	if _, err := c.normalize(false); err != nil {
		t.Errorf("two shards of %d blocks refused: %v", uint64(limit), err)
	}
}

// TestClusterShardSealable: a cluster shard seals its state into one blob
// to migrate, so a ClusterNode refuses a shard past the sealable size on
// the memory engine too, naming the limit in blocks.
func TestClusterShardSealable(t *testing.T) {
	const addr = "node-a:7070"
	limit := shard.MaxSealableBlocks()
	man := &cluster.Manifest{Epoch: 1, Blocks: limit + 1, Shards: 1, Ranges: []cluster.Range{{From: 0, To: 1, Addr: addr}}}
	_, err := NewClusterNode(ClusterNodeConfig{Addr: addr, Store: ShardedStoreConfig{Engine: BackendMemory}}, man)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at most %d blocks", limit)) {
		t.Fatalf("a memory ClusterNode over one shard of %d blocks: %v, want a refusal naming the %d-block limit", limit+1, err, limit)
	}
}
