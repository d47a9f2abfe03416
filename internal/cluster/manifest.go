// Package cluster holds the multi-node placement layer of the oblivious
// store: a manifest mapping contiguous shard ranges onto node addresses
// under a monotonically increasing geometry epoch, and the node state a
// durable node persists beside its shards.
//
// The placement map is deliberately tiny and public. Which node serves a
// shard is a deterministic pure function of the public block id (the §6
// striping router composed with the range lookup here), so placement
// reveals nothing beyond the id the client already presented in plaintext
// at the trusted boundary — each node's backend still observes exactly one
// uniform path per access for the shards it owns (DESIGN.md §11).
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"palermo/internal/backend/durable"
)

// Range assigns the contiguous shard interval [From, To) to one node.
type Range struct {
	From uint32 `json:"from"` // first shard, inclusive
	To   uint32 `json:"to"`   // last shard, exclusive
	Addr string `json:"addr"` // node address as clients dial it (host:port)
}

// Manifest is the cluster placement map: the store geometry every node
// must agree on, plus the shard→node assignment, versioned by a geometry
// epoch that only ever increases. Every live migration bumps Epoch by one
// when the placement flips, so any two manifests are ordered and a client
// holding a stale one fails loudly (StatusWrongEpoch) instead of reading
// from a node that surrendered the shard.
type Manifest struct {
	Epoch  uint64  `json:"epoch"`
	Blocks uint64  `json:"blocks"`
	Shards uint32  `json:"shards"`
	Ranges []Range `json:"ranges"`
}

// Validate checks the manifest's internal consistency: a positive
// geometry, and ranges that exactly tile [0, Shards) in order with no
// overlap, no gap, and no empty or unaddressed range. A node may own
// several (non-adjacent) ranges — the normal state after migrations.
func (m *Manifest) Validate() error {
	if m.Blocks == 0 {
		return fmt.Errorf("cluster: manifest has zero blocks")
	}
	if m.Shards == 0 {
		return fmt.Errorf("cluster: manifest has zero shards")
	}
	if uint64(m.Shards) > m.Blocks {
		return fmt.Errorf("cluster: %d shards exceed %d blocks", m.Shards, m.Blocks)
	}
	if len(m.Ranges) == 0 {
		return fmt.Errorf("cluster: manifest has no ranges")
	}
	next := uint32(0)
	for i, r := range m.Ranges {
		if r.Addr == "" {
			return fmt.Errorf("cluster: range %d ([%d,%d)) has no node address", i, r.From, r.To)
		}
		if r.From != next {
			return fmt.Errorf("cluster: range %d starts at shard %d, want %d (ranges must tile [0,%d) in order)",
				i, r.From, next, m.Shards)
		}
		if r.To <= r.From {
			return fmt.Errorf("cluster: range %d ([%d,%d)) is empty", i, r.From, r.To)
		}
		next = r.To
	}
	if next != m.Shards {
		return fmt.Errorf("cluster: ranges cover [0,%d) but the manifest has %d shards", next, m.Shards)
	}
	return nil
}

// Owner returns the address of the node owning shard s ("" if s is out of
// range). The manifest must be valid.
func (m *Manifest) Owner(s int) string {
	for _, r := range m.Ranges {
		if uint32(s) >= r.From && uint32(s) < r.To {
			return r.Addr
		}
	}
	return ""
}

// Nodes returns the distinct node addresses in first-appearance order.
func (m *Manifest) Nodes() []string {
	var out []string
	seen := make(map[string]bool)
	for _, r := range m.Ranges {
		if !seen[r.Addr] {
			seen[r.Addr] = true
			out = append(out, r.Addr)
		}
	}
	return out
}

// Owned returns the shards addr owns, ascending.
func (m *Manifest) Owned(addr string) []int {
	var out []int
	for _, r := range m.Ranges {
		if r.Addr != addr {
			continue
		}
		for s := r.From; s < r.To; s++ {
			out = append(out, int(s))
		}
	}
	sort.Ints(out)
	return out
}

// WithOwner returns a copy of the manifest with shard s reassigned to addr
// and the epoch set to newEpoch — the placement flip a completed migration
// commits. Ranges are re-normalized (split around s, adjacent same-owner
// ranges merged), so the result is valid whenever the input was.
func (m *Manifest) WithOwner(s int, addr string, newEpoch uint64) *Manifest {
	// Expand to a per-shard owner table, flip one entry, and run-length
	// encode it back: obviously correct, and S is capped at a few thousand.
	owners := make([]string, m.Shards)
	for _, r := range m.Ranges {
		for i := r.From; i < r.To && int(i) < len(owners); i++ {
			owners[i] = r.Addr
		}
	}
	if s >= 0 && s < len(owners) {
		owners[s] = addr
	}
	out := &Manifest{Epoch: newEpoch, Blocks: m.Blocks, Shards: m.Shards}
	for i := 0; i < len(owners); {
		j := i
		for j < len(owners) && owners[j] == owners[i] {
			j++
		}
		out.Ranges = append(out.Ranges, Range{From: uint32(i), To: uint32(j), Addr: owners[i]})
		i = j
	}
	return out
}

// EvenSplit builds an initial manifest at epoch 1 that deals the shards
// out to the nodes in contiguous, near-equal ranges (the first
// shards%len(addrs) nodes get one extra).
func EvenSplit(blocks uint64, shards uint32, addrs []string) (*Manifest, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: EvenSplit needs at least one node address")
	}
	if uint32(len(addrs)) > shards {
		return nil, fmt.Errorf("cluster: %d nodes exceed %d shards (a node would own nothing)", len(addrs), shards)
	}
	m := &Manifest{Epoch: 1, Blocks: blocks, Shards: shards}
	per, extra := shards/uint32(len(addrs)), shards%uint32(len(addrs))
	from := uint32(0)
	for i, addr := range addrs {
		n := per
		if uint32(i) < extra {
			n++
		}
		m.Ranges = append(m.Ranges, Range{From: from, To: from + n, Addr: addr})
		from += n
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode renders the manifest as canonical indented JSON (the wire body of
// the Manifest op and the on-disk format of Save).
func (m *Manifest) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("cluster: encode manifest: %w", err)
	}
	return append(buf, '\n'), nil
}

// Decode parses and validates a manifest. Unknown fields are rejected so a
// typo in a hand-edited manifest fails loudly instead of silently defaulting.
func Decode(data []byte) (*Manifest, error) {
	var m Manifest
	if err := strictUnmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: decode manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// strictUnmarshal is json.Unmarshal with unknown fields rejected, and
// anything but white space after the value too.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Load reads and validates a manifest file.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: manifest %s: %w", path, err)
	}
	return m, nil
}

// Save replaces the manifest file atomically and durably (the store's one
// discipline for that, durable.ReplaceFile): a crash mid-write never
// leaves a torn manifest behind, and a power loss after Save returns
// cannot undo it.
func (m *Manifest) Save(path string) error {
	buf, err := m.Encode()
	if err != nil {
		return err
	}
	if err := durable.ReplaceFile(path, buf); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}
