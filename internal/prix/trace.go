package prix

import (
	"repro/internal/obs"
	"repro/internal/twig"
)

// This file wires the engine into the obs span model. The span tree of a
// traced Match:
//
//	<trace root>
//	└── match(rp|ep)             — one per Index.Match; samples this
//	    │                          index's pools for I/O attribution
//	    ├── [arrangement(NNN)]   — only for multi-arrangement unordered
//	    │   │                      queries; otherwise filter/refine hang
//	    │   │                      off match directly
//	    │   ├── filter           — Algorithm 1, the root walk: descent/
//	    │   │   │                  prefetch/emit_wait
//	    │   │   └── branch(hex)  — subtrees of the one walk that a free
//	    │   │                      worker took (pipelined scheduler only),
//	    │   │                      keyed by the descent path (lexicographic
//	    │   │                      = depth-first emission order)
//	    │   └── refine           — Algorithm 2 stages; at Parallelism 1 the
//	    │       │                  walk's emit times fetch/connect/
//	    │       │                  structure/leaves here, one fetch window
//	    │       │                  per candidate
//	    │       └── worker(NNN)  — the pipelined scheduler's refinement pool
//	    └── scan(NNN)            — single-node queries: per-shard scans
//
// Stage accumulators are written by the single goroutine owning each
// span; sibling order is the explicit key, so concurrent workers merge
// deterministically (see package obs).

// ioCounts samples both buffer pools' read counters for span I/O
// attribution: two atomic loads per pool. Index.io holds it as a func value
// made once, so opening a match span does not allocate a new one.
func (ix *Index) ioCounts() (physical, logical uint64) {
	fp, fl := ix.forest.BufferPool().ReadCounts()
	sp, sl := ix.store.BufferPool().ReadCounts()
	return fp + sp, fl + sl
}

// matchSpan opens the per-Match root span under the caller's trace (nil
// without one). The span is keyed by index kind, so a trace shows which half
// of a dual index answered.
// When parent is non-nil the span hangs off it instead of the trace root —
// the shard coordinator passes its per-shard span so a traced fan-out
// nests every index execution under its shard/NNN child.
func (ix *Index) matchSpan(tr *obs.Trace, parent *obs.Span, q *twig.Query) *obs.Span {
	if parent == nil {
		parent = tr.Root()
	}
	if parent == nil {
		return nil
	}
	key := "rp"
	if ix.opts.Extended {
		key = "ep"
	}
	sp := parent.ChildIO("match", key, ix.io)
	sp.SetStringer("query", q) // rendered if the tree is
	return sp
}

// finishMatchSpan stamps the final accounting onto the match span and
// closes it.
func finishMatchSpan(sp *obs.Span, stats *QueryStats) {
	if sp == nil {
		return
	}
	sp.SetInt("range_queries", int64(stats.RangeQueries))
	sp.SetInt("pruned", int64(stats.TriePathsPruned))
	sp.SetInt("candidates", int64(stats.Candidates))
	sp.SetInt("matches", int64(stats.Matches))
	sp.SetInt("record_fetches", int64(stats.RecordFetches))
	sp.SetInt("record_cache_hits", int64(stats.RecordCacheHits))
	if stats.Degraded {
		sp.SetInt("degraded", 1)
	}
	sp.End()
}
