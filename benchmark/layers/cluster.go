package layers

import "palermo/internal/cluster"

// EvenSplit builds the epoch-1 placement manifest palermo.NewClusterNode
// takes: the shards dealt to the addresses in contiguous equal ranges.
func EvenSplit(blocks uint64, shards int, addrs []string) (*cluster.Manifest, error) {
	return cluster.EvenSplit(blocks, uint32(shards), addrs)
}
