package layers

import (
	"palermo/internal/backend"
	"palermo/internal/shard"
)

// Shard is the shard rung of the ladder: one shard over a caller-supplied
// backend, pipelined at the store's default depth.
type Shard struct{ s *shard.Shard }

// NewShard builds shard 0 of 1 the way NewShardedStore builds each of its
// shards at default knobs.
func NewShard(blocks uint64, key []byte, seed uint64, be backend.Backend) (*Shard, error) {
	s, err := shard.New(0, 1, blocks, key, shard.DeriveSeed(seed, 0), be)
	if err != nil {
		return nil, err
	}
	s.EnablePipeline(pipelineDepth)
	return &Shard{s}, nil
}

func (h *Shard) Read(id uint64) ([]byte, error)  { return h.s.Read(id) }
func (h *Shard) Write(id uint64, d []byte) error { return h.s.Write(id, d) }

// Close checkpoints and closes the shard and its backend.
func (h *Shard) Close() error { return h.s.Close() }
