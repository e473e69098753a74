package prix

import "repro/internal/twig"

// Source is the one surface a serving engine presents to the query service
// (internal/server), a shard's replica group (internal/shard) and the CLIs.
// *Index, *DynamicIndex, compact.Root and shard.Coordinator implement it;
// whatever they differ in is data in SourceStats, not another interface.
type Source interface {
	Match(q *twig.Query, opts MatchOptions) ([]Match, *QueryStats, error)
	// PagesRead is the monotonic physical-read counter per-query PagesRead
	// deltas are taken from.
	PagesRead() uint64
	// Generation moves on every change that can move an answer, after the
	// change is visible to Match and before the mutating call returns. A
	// Match that starts after reading g therefore sees at least g's data,
	// so a result cache keys on the generation read *before* Match.
	Generation() uint64
	// Stats snapshots what /healthz, /stats and /metrics report.
	Stats() SourceStats
}

// SourceStats is a Source's state as the serving surfaces report it. Fields
// a source does not have stay zero: one index has no Shards, an index
// without a hot tier has Hot.Enabled false.
type SourceStats struct {
	Docs     int
	Extended bool
	// Quarantined lists the docids fenced off after corruption was
	// detected, ascending; queries skip them and answer Degraded.
	Quarantined []uint32
	Hot         HotStats
	Versions    VersionStats
	// PoolResidentPages is the pages the buffer pools hold right now, summed
	// over both page files (and over every replica of a sharded source).
	PoolResidentPages uint64
	// DictBytes is the heap the symbol dictionaries hold (docstore.Dict.Bytes),
	// summed over every replica of a sharded source.
	DictBytes int
	// Shapes is the distinct document shapes the shape dictionaries hold and
	// ShapeBytes their heap (docstore.Store.ShapeBytes), both summed over
	// every replica of a sharded source.
	Shapes, ShapeBytes int
	// LeafSplits is the B+-tree leaves inserts have split since the forest
	// was opened (btree.Forest.LeafSplits), summed over every replica of a
	// sharded source. A compaction opens a fresh forest, which starts it over.
	LeafSplits uint64
	// Epoch identifies a sharded layout's document placement.
	Epoch uint64
	// Shards has one row per shard of a scatter-gather source.
	Shards []ShardStats
}

// DegradedShards lists the shards serving less than their full document
// set: a replica holds quarantined documents, or the shard's last query
// found every replica failing.
func (s *SourceStats) DegradedShards() []int {
	var out []int
	for _, row := range s.Shards {
		if row.Down || len(row.Quarantined) > 0 {
			out = append(out, row.ID)
		}
	}
	return out
}

// ShardStats is one shard's serving counters, aggregated across its
// replicas (the rows of /stats "shards").
type ShardStats struct {
	ID          int      `json:"id"`
	Replicas    int      `json:"replicas"`
	Docs        int      `json:"docs"`
	Queries     uint64   `json:"queries"`
	Errors      uint64   `json:"errors"`
	Failovers   uint64   `json:"failovers"`
	Retries     uint64   `json:"retries"`
	Hedges      uint64   `json:"hedges"`
	Degraded    uint64   `json:"degraded"`
	Down        bool     `json:"down,omitempty"`
	PagesRead   uint64   `json:"pages_read"`
	MeanUS      int64    `json:"latency_mean_us"`
	Quarantined []uint32 `json:"quarantined,omitempty"`
}

// Generation is always 0: an Index takes no mutations while it serves.
func (ix *Index) Generation() uint64 { return 0 }

// Stats snapshots the index for the serving surfaces.
func (ix *Index) Stats() SourceStats {
	return SourceStats{
		Docs:        ix.NumDocs(),
		Extended:    ix.Extended(),
		Quarantined: ix.Quarantined(),
		Hot:         ix.HotStats(),
		Versions:    ix.VersionStats(),
		PoolResidentPages: ix.forest.BufferPool().Stats().Resident +
			ix.store.BufferPool().Stats().Resident,
		DictBytes:  ix.store.Dict().Bytes(),
		Shapes:     ix.store.NumShapes(),
		ShapeBytes: ix.store.ShapeBytes(),
		LeafSplits: ix.forest.LeafSplits(),
	}
}

// Stats snapshots the index under the read lock, so the counts agree with
// one mutation boundary.
func (di *DynamicIndex) Stats() SourceStats {
	di.mu.RLock()
	defer di.mu.RUnlock()
	return di.ix.Stats()
}
