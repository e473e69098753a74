package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// DefaultShardInFlight is the per-shard admission bound when the
// configuration leaves it zero.
const DefaultShardInFlight = 64

// Config tunes the coordinator.
type Config struct {
	// MaxInFlightPerShard bounds concurrently executing queries per shard
	// (0 means DefaultShardInFlight). The service-level admission bound
	// still caps the total; this one keeps a single hot shard from
	// oversubscribing its buffer pools.
	MaxInFlightPerShard int
	// HedgeDelay, when positive, launches a backup read on a shard's next
	// replica if the current one has not answered within the delay —
	// failover driven by latency, not just errors. 0 disables hedging
	// (failover on error still applies). Meaningless with one replica.
	HedgeDelay time.Duration
	// OpenReplicas caps how many replicas Open loads per shard (0 = all).
	// A read-light deployment can serve from one replica per shard and
	// leave the rest on disk for failover redeploys.
	OpenReplicas int
	// Retry shapes sequential replica failover: jittered exponential
	// backoff between attempts and a per-query attempt budget. The zero
	// value keeps immediate one-attempt-per-replica failover.
	Retry RetryPolicy
	// ResolveDir, when non-nil, maps each replica directory to the
	// directory actually holding its index files before Open loads it.
	// compact.ResolveDir goes here so replicas compacted into epoch-root
	// layouts stay openable in place. Nil opens replica directories as-is.
	ResolveDir func(dir string) (string, error)
}

// Coordinator is the scatter-gather query tier over a shard set. It is a
// prix.Source like each of its replicas, so every layer above it —
// executor, result cache, admission, tracing — works unchanged over N
// shards; its Stats adds the per-shard rows and the placement epoch.
type Coordinator struct {
	topo    Topology
	shards  []*Shard
	closers []io.Closer
}

// NewCoordinator assembles a coordinator from per-shard replica groups.
// replicas[s] lists shard s's backends; every backend must agree with the
// topology on document counts (checked via the derived docid maps) and on
// the index kind.
func NewCoordinator(topo *Topology, replicas [][]prix.Source, cfg Config) (*Coordinator, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if len(replicas) != topo.Shards {
		return nil, fmt.Errorf("shard: topology has %d shards, got %d replica groups",
			topo.Shards, len(replicas))
	}
	maps := topo.DocMaps()
	c := &Coordinator{topo: *topo, shards: make([]*Shard, topo.Shards)}
	for s := range replicas {
		for _, b := range replicas[s] {
			if ext := b.Stats().Extended; ext != topo.Extended {
				return nil, fmt.Errorf("shard %d: extended=%v, topology says %v",
					s, ext, topo.Extended)
			}
		}
		sh, err := NewShard(s, maps[s], replicas[s], cfg.MaxInFlightPerShard, cfg.HedgeDelay)
		if err != nil {
			return nil, err
		}
		sh.SetRetry(cfg.Retry)
		c.shards[s] = sh
	}
	return c, nil
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Shard returns one shard (tooling and tests).
func (c *Coordinator) Shard(i int) *Shard { return c.shards[i] }

// PagesRead sums physical page reads over every shard's replicas.
func (c *Coordinator) PagesRead() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.PagesRead()
	}
	return n
}

// Generation sums the replicas' generations: it moves whenever any replica
// mutates, and stays constant over a static layout.
func (c *Coordinator) Generation() uint64 {
	var g uint64
	for _, s := range c.shards {
		for _, b := range s.replicas {
			g += b.Generation()
		}
	}
	return g
}

// Stats reports the collection as one source — documents, resident pool
// pages, dictionary bytes and leaf splits summed, the quarantine merged into one ascending
// global docid list — plus the placement epoch and one row per shard.
func (c *Coordinator) Stats() prix.SourceStats {
	st := prix.SourceStats{Extended: c.topo.Extended, Epoch: c.topo.Epoch, Shards: c.ShardStats()}
	for _, row := range st.Shards {
		st.Docs += row.Docs
		st.Quarantined = append(st.Quarantined, row.Quarantined...)
	}
	for _, s := range c.shards {
		for _, b := range s.replicas {
			bs := b.Stats()
			st.PoolResidentPages += bs.PoolResidentPages
			st.DictBytes += bs.DictBytes
			st.Shapes += bs.Shapes
			st.ShapeBytes += bs.ShapeBytes
			st.LeafSplits += bs.LeafSplits
		}
	}
	slices.Sort(st.Quarantined)
	st.Quarantined = slices.Compact(st.Quarantined)
	return st
}

// ShardStats snapshots every shard's serving counters (the /stats
// aggregation: callers sum what they need and keep the per-shard detail).
func (c *Coordinator) ShardStats() []prix.ShardStats {
	out := make([]prix.ShardStats, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.Stats()
	}
	return out
}

// Indexes returns every concrete *prix.Index backend (replica order within
// ascending shard order), for callers that attach per-index machinery such
// as scrubbers. In-memory or dynamic backends that are not *prix.Index are
// skipped.
func (c *Coordinator) Indexes() []*prix.Index {
	var out []*prix.Index
	for _, s := range c.shards {
		for _, b := range s.replicas {
			if ix, ok := b.(*prix.Index); ok {
				out = append(out, ix)
			}
		}
	}
	return out
}

// Close closes every backend the coordinator owns (those opened by Open;
// backends handed to NewCoordinator directly are the caller's to close).
func (c *Coordinator) Close() error {
	var err error
	for _, cl := range c.closers {
		if e := cl.Close(); err == nil {
			err = e
		}
	}
	c.closers = nil
	return err
}

// Match fans the query out to every shard, runs them concurrently and
// merges. The contract that makes sharding invisible:
//
//   - Results are byte-identical to a single index over the same
//     documents, at every shard count: docids are globally unique and the
//     per-shard engine is deterministic, so the merge of the shards' sorted
//     answers under the engine's own comparator (prix's compareMatches) is
//     the single index's order.
//   - A shard whose every replica fails degrades alone: its matches are
//     missing, stats.Degraded is set and stats.DegradedShards names it —
//     the query still succeeds over the healthy shards. Only when every
//     shard fails does Match return an error.
//   - Query-shape errors (ErrNeedsExtendedIndex) and the caller's own
//     cancellation propagate immediately: they are identical on every
//     shard, so partial results would be meaningless.
//
// Each shard answers into a pooled prix.MatchBuf of its own, and
// prix.MergeMatches copies the answers once, into exactly sized memory the
// caller keeps; the caller's own opts.Into is left alone, since one buffer
// holds one answer. Counter stats sum across shards; PagesRead is the usual
// monotonic before/after delta over every replica pool; Elapsed is the
// fan-out's wall clock.
func (c *Coordinator) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	start := time.Now()
	ctx := cmp.Or(opts.Ctx, context.Background())
	pagesBefore := c.PagesRead()
	parent := opts.TraceParent
	if parent == nil {
		parent = opts.Trace.Root()
	}
	type shardResult struct {
		ms    []prix.Match
		stats *prix.QueryStats
		err   error
		buf   *prix.MatchBuf
	}
	results := make([]shardResult, len(c.shards))
	defer func() {
		for i := range results {
			results[i].buf.Release()
		}
	}()
	var wg sync.WaitGroup
	for i := range c.shards {
		var ssp *obs.Span
		if opts.Trace != nil {
			// Shard spans are created before the goroutines start and keyed
			// by ordinal, so the traced fan-out merges deterministically no
			// matter which shard finishes first.
			ssp = parent.ChildKeyed("shard", obs.OrdinalKey(i))
			ssp.SetInt("docs", int64(c.shards[i].NumDocs()))
		}
		results[i].buf = prix.NewMatchBuf()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[i]
			o := opts
			o.Ctx = ctx
			o.TraceParent = ssp
			o.Into = r.buf
			r.ms, r.stats, r.err = c.shards[i].Match(ctx, q, o)
			if ssp != nil {
				if r.err != nil {
					ssp.SetStr("error", r.err.Error())
				} else {
					ssp.SetInt("matches", int64(len(r.ms)))
					if r.stats.Degraded {
						ssp.SetInt("degraded", 1)
					}
				}
				ssp.End()
			}
		}()
	}
	wg.Wait()

	merged := &prix.QueryStats{}
	var inline [8][]prix.Match // runs stays on the stack up to eight shards
	runs := inline[:0]
	var degradedShards []int
	var lastErr error
	for i := range results {
		r := &results[i]
		if r.err != nil {
			switch {
			case errors.Is(r.err, prix.ErrNeedsExtendedIndex):
				// Query shape, not shard health: identical on every shard.
				return nil, nil, r.err
			case isContextErr(r.err):
				// The caller's own deadline/cancellation; a partial answer
				// would be indistinguishable from a complete one.
				return nil, nil, r.err
			default:
				// This shard is unhealthy (every replica failed): degrade
				// alone, keep the rest of the answer.
				degradedShards = append(degradedShards, i)
				merged.Degraded = true
				lastErr = fmt.Errorf("%s: %w", Name(i), r.err)
			}
			continue
		}
		runs = append(runs, r.ms)
		merged.RangeQueries += r.stats.RangeQueries
		merged.TriePathsPruned += r.stats.TriePathsPruned
		merged.Candidates += r.stats.Candidates
		merged.RecordFetches += r.stats.RecordFetches
		if r.stats.Degraded {
			merged.Degraded = true
			degradedShards = append(degradedShards, i)
		}
	}
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("shard: all %d shards failed: %w", len(c.shards), lastErr)
	}
	// Deterministic global order: each shard's answer is in the engine's
	// compareMatches order under its global docids (Shard.Match maps them
	// in place, and a shard's docid map rises), and shards partition the
	// docid space, so merging them reproduces the single index's (DocID,
	// Positions) order exactly.
	out := prix.MergeMatches(nil, runs...)
	merged.Matches = len(out)
	merged.PagesRead = c.PagesRead() - pagesBefore
	merged.Elapsed = time.Since(start)
	merged.DegradedShards = degradedShards
	return out, merged, nil
}

// ReconstructDocument rebuilds one document (by global docid) from its
// owner shard's stored Prüfer sequences, failing over across replicas.
func (c *Coordinator) ReconstructDocument(global uint32) (*xmltree.Document, error) {
	if global >= c.topo.Docs {
		return nil, fmt.Errorf("shard: docid %d outside collection (%d docs)", global, c.topo.Docs)
	}
	s, local := c.locate(global)
	var lastErr error
	for _, b := range c.shards[s].replicas {
		rc, ok := b.(interface {
			ReconstructDocument(uint32) (*xmltree.Document, error)
		})
		if !ok {
			continue
		}
		doc, err := rc.ReconstructDocument(local)
		if err == nil {
			doc.ID = int(global)
			return doc, nil
		}
		if errors.Is(err, prix.ErrDocDeleted) {
			// Every replica holds the same history: no failover.
			return nil, fmt.Errorf("%s: %w", Name(s), err)
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no replica supports reconstruction")
	}
	return nil, fmt.Errorf("%s: %w", Name(s), lastErr)
}

// locate maps a global docid below the collection's count to its owner
// shard and the local docid it has there: its rank in the shard's
// ascending docid map.
func (c *Coordinator) locate(global uint32) (shard int, local uint32) {
	shard = Owner(global, c.topo.Shards)
	k, _ := slices.BinarySearch(c.shards[shard].toGlobal, global)
	return shard, uint32(k)
}
