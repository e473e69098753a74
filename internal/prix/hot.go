package prix

import (
	"math"

	"repro/internal/btree"
	"repro/internal/hot"
	"repro/internal/vtrie"
)

// This file wires the in-memory hot tier (internal/hot) into the query path.
// With Options.HotBudget > 0 the index keeps, under one LRU byte budget,
// verbatim images of the packed leaves of its postings and Docid trees, each
// with the key range it covers. A query level whose symbol's key range is
// covered by resident leaves scans their images with the B+-tree's own leaf
// search and cell loop, without touching the forest; so do the terminal
// docid scans once every Docid leaf is resident.
//
// Algorithm 2 needs no tier: it navigates the store's resident shape
// dictionary in place, tier or not.
//
// Everything in the tier is a verified cache of the authoritative B+-tree
// image: every writer invalidates what it touches — a postings insert the
// leaves whose range holds its key, a Docid write every Docid leaf, a forest
// rebuild everything — so results are byte-identical to the paged path at
// every parallelism setting.
//
// Tier reads and lazy admissions happen under repairMu.RLock; every
// structural writer holds repairMu.Lock, so an admission always copies a
// stable image. A query resolves its runs once (compile) and keeps them for
// its whole run: a run aliases bytes the tier never rewrites, so it stays
// valid even if the tier evicts, invalidates or repacks its leaves
// meanwhile.
//
// Every admission reads its pages without filling the buffer pool
// (btree.Tree.LeavesNoFill): a page read only to be copied into the tier is
// not kept a second time as a pool frame. Pages the pool already holds,
// dirty ones included, are read from their frames. The paged path's tree
// scans still fill the pool as before.

// symRange is symbol s's key range in the postings tree.
func symRange(s vtrie.Symbol) (lo, hi hot.Key) {
	return hot.Key{Sym: uint32(s)}, hot.Key{Sym: uint32(s), Left: math.MaxUint64}
}

// docidRange is the Docid tree's whole key range.
func docidRange() (lo, hi hot.Key) { return hot.Key{}, hot.Key{Left: math.MaxUint64} }

// initHot creates the tier when the options enable it.
func (ix *Index) initHot() {
	if ix.opts.HotBudget > 0 {
		ix.hot = hot.NewTier(ix.opts.HotBudget)
	}
}

// HotStats reports the tier's residency and hit counters; Enabled false
// means no tier is configured (all other fields zero).
type HotStats struct {
	Enabled bool      `json:"enabled"`
	Tier    hot.Stats `json:"tier"`
}

// HotStats snapshots the hot tier.
func (ix *Index) HotStats() HotStats {
	if ix.hot == nil {
		return HotStats{}
	}
	return HotStats{Enabled: true, Tier: ix.hot.Stats()}
}

// hotRun resolves the tier's run of tree's key range [lo, hi], appending its
// images to *images, the plan's scratch, and returning them; on a miss it
// admits the range's leaves. ok false means the scan must go to the tree:
// no tier, a range larger than the budget, or a read error the tree path
// will surface itself.
func (ix *Index) hotRun(tree *btree.Tree, kind hot.Kind, lo, hi hot.Key, images *hot.Run) (hot.Run, bool) {
	if ix.hot == nil || tree == nil {
		return nil, false
	}
	n := len(*images)
	run, ok := ix.hot.Run(kind, lo, hi, *images)
	if !ok {
		run, ok = ix.hot.Load(tree, kind, lo, hi, *images)
	}
	*images = run
	return run[n:], ok
}

// hotInvalidatePosting drops the resident postings leaves an insert of key
// (s, left) may have rewritten.
func (ix *Index) hotInvalidatePosting(s vtrie.Symbol, left uint64) {
	if ix.hot != nil {
		ix.hot.Invalidate(hot.KindPostings, hot.Key{Sym: uint32(s), Left: left})
	}
}

// hotInvalidateDocid drops every resident Docid leaf.
func (ix *Index) hotInvalidateDocid() {
	if ix.hot != nil {
		ix.hot.InvalidateKind(hot.KindDocIDs)
	}
}

// hotInvalidateAll empties the tier (forest rebuild replaced everything).
func (ix *Index) hotInvalidateAll() {
	if ix.hot != nil {
		ix.hot.InvalidateAll()
	}
}

// PreloadHot copies every leaf into the tier in priority order — the Docid
// tree's, then the postings tree's, each in key order — without evicting
// anything already loaded; it stops at the first leaf that no longer fits,
// and the tier is trimmed to exact size at the end. Its admissions count no
// hits or misses. A leaf that fails to read stops the preload there, and the
// leaf before it is not admitted, since its range's end is unknown: a query
// over it takes the tree path and reports the error itself. Open and the
// builders call it automatically; it is a no-op without a tier. Callers
// that own the index exclusively may call it again after bulk mutations.
func (ix *Index) PreloadHot() {
	if ix.hot == nil {
		return
	}
	defer ix.hot.Trim()
	if ix.docid != nil && !ix.hot.Preload(ix.docid, hot.KindDocIDs) {
		return
	}
	ix.hot.Preload(ix.postings, hot.KindPostings)
}
