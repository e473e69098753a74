// Package shard is the horizontal-scaling tier: it splits one logical
// document collection across N self-contained PRIX indexes (shards), each
// optionally carried by R identical replicas, behind a scatter-gather
// Coordinator that fans a query out, executes the shards concurrently and
// merges their results back into exactly the order a single index would
// have produced.
//
// Ownership is a pure function of the global docid (hash placement), so
// the local→global docid maps never need to be persisted: they are derived
// from the topology alone. Every shard runs the full single-index stack —
// CRC-sealed pages, journaled commits, quarantine-based degradation,
// scrub/repair — which is what lets a corrupt or dead shard degrade alone:
// the Coordinator returns the healthy shards' matches as a partial
// Degraded answer instead of failing the whole service.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/pager"
)

// TopologyFile is the layout descriptor at the root of a sharded index
// directory; its presence is what distinguishes a sharded layout from a
// plain single-index directory.
const TopologyFile = "topology.json"

// ErrNoTopology reports that a directory holds no sharded layout (callers
// fall back to opening it as a single index).
var ErrNoTopology = errors.New("shard: no topology.json (not a sharded layout)")

// Topology describes a sharded layout: how many shards and replicas exist,
// how many documents they carry, and the epoch that identifies this
// particular placement of documents onto shards.
type Topology struct {
	// Version is the layout format version (currently 1). It also pins the
	// ownership hash: a future layout that changes Owner must bump it.
	Version int `json:"version"`
	// Shards is the number of shards (≥ 1).
	Shards int `json:"shards"`
	// Replicas is the number of identical copies of each shard (≥ 1).
	Replicas int `json:"replicas"`
	// Extended records whether the shards are EPIndexes.
	Extended bool `json:"extended"`
	// Docs is the total document count across all shards. Together with
	// Shards it fully determines every shard's local→global docid map.
	Docs uint32 `json:"docs"`
	// Epoch identifies this placement. A rebuild with a different shard
	// count (or any reshard) gets a fresh epoch.
	Epoch uint64 `json:"epoch"`
}

// Validate rejects malformed descriptors before any file is opened.
func (t *Topology) Validate() error {
	switch {
	case t.Version != 1:
		return fmt.Errorf("shard: unsupported topology version %d", t.Version)
	case t.Shards < 1:
		return fmt.Errorf("shard: topology has %d shards", t.Shards)
	case t.Replicas < 1:
		return fmt.Errorf("shard: topology has %d replicas", t.Replicas)
	}
	return nil
}

// LoadTopology reads and validates root/topology.json.
func LoadTopology(root string) (*Topology, error) {
	raw, err := os.ReadFile(filepath.Join(root, TopologyFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoTopology, root)
	}
	if err != nil {
		return nil, err
	}
	t := &Topology{}
	if err := json.Unmarshal(raw, t); err != nil {
		return nil, fmt.Errorf("shard: %s: %w", TopologyFile, err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Save writes root/topology.json on fs through pager.WriteFileAtomic, so a
// crash mid-write leaves either the old descriptor or none — never a torn
// one.
func (t *Topology) Save(fs pager.FS, root string) error {
	if err := t.Validate(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return pager.WriteFileAtomic(fs, filepath.Join(root, TopologyFile), append(raw, '\n'))
}

// Owner maps a global docid to its shard: FNV-1a over the docid's four
// little-endian bytes, mod the shard count. A pure function, so placement
// is derivable anywhere (builder, coordinator, tooling) without a lookup
// table; hashing (rather than ranges) keeps sequentially assigned docids —
// the common bulk-load shape — spread evenly across shards.
func Owner(docID uint32, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < 32; i += 8 {
		h ^= (docID >> i) & 0xff
		h *= prime32
	}
	return int(h % uint32(shards))
}

// DocMaps derives every shard's local→global docid map: shard s's local
// docid k is the k-th global docid owned by s. Each shard's index assigns
// local ids sequentially in build order, and the builder feeds it the
// owned documents in ascending global order, so this derivation is exact.
func (t *Topology) DocMaps() [][]uint32 {
	maps := make([][]uint32, t.Shards)
	for g := uint32(0); g < t.Docs; g++ {
		s := Owner(g, t.Shards)
		maps[s] = append(maps[s], g)
	}
	return maps
}

// Name renders a shard's canonical name ("shard-003"), used in directory
// layout, the X-Prix-Degraded header and trace spans alike.
func Name(shard int) string { return fmt.Sprintf("shard-%03d", shard) }

// Dir returns a shard's directory under the layout root.
func Dir(root string, shard int) string {
	return filepath.Join(root, Name(shard))
}

// ReplicaDir returns one replica's index directory.
func ReplicaDir(root string, shard, replica int) string {
	return filepath.Join(Dir(root, shard), fmt.Sprintf("replica-%03d", replica))
}
