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
//	    │   │   │                  prefetch
//	    │   │   └── branch(hex)  — subtrees of the one walk that a free
//	    │   │                      worker took (Parallelism > 1 only),
//	    │   │                      keyed by the descent path (lexicographic
//	    │   │                      = depth-first order); a branch's own
//	    │   │                      descent/prefetch and the fetch/connect/
//	    │   │                      structure/leaves of the candidates it
//	    │   │                      refines land here
//	    │   └── refine           — Algorithm 2 stages of the root walk's
//	    │                          candidates: fetch/connect/structure/
//	    │                          leaves, one fetch window per candidate
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
	if stats.Degraded {
		sp.SetInt("degraded", 1)
	}
	sp.End()
}
