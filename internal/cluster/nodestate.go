package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"palermo/internal/backend/durable"
)

// nodeStateName is the per-node durable cluster state file inside a
// node's store directory.
const nodeStateName = "cluster.json"

// NodeState is the slice of cluster state one durable node persists
// alongside its WAL shards: its own manifest identity and the newest
// placement manifest it has committed to. A restarting node adopts the
// higher-epoch manifest of {startup file, persisted state}, so a node
// that flipped placement during a previous life never resurrects a stale
// shard assignment; an offline verifier reads the same file to learn
// which shards the directory is supposed to hold.
type NodeState struct {
	Addr     string    `json:"addr"`
	Manifest *Manifest `json:"manifest"`
}

// LoadNodeState reads dir's persisted node state. A directory without one
// (a first boot) returns (nil, nil).
func LoadNodeState(dir string) (*NodeState, error) {
	data, err := os.ReadFile(filepath.Join(dir, nodeStateName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	var ns NodeState
	if err := strictUnmarshal(data, &ns); err != nil {
		return nil, fmt.Errorf("cluster: node state %s: %w", filepath.Join(dir, nodeStateName), err)
	}
	if ns.Addr == "" || ns.Manifest == nil {
		return nil, fmt.Errorf("cluster: node state %s is incomplete", filepath.Join(dir, nodeStateName))
	}
	if err := ns.Manifest.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: node state %s: %w", filepath.Join(dir, nodeStateName), err)
	}
	return &ns, nil
}

// Save persists the node state into dir atomically and durably — it is the
// §11 migration commit, so the directory entry is fsynced too.
func (ns *NodeState) Save(dir string) error {
	buf, err := json.MarshalIndent(ns, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: encode node state: %w", err)
	}
	if err := durable.ReplaceFile(filepath.Join(dir, nodeStateName), append(buf, '\n')); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}
