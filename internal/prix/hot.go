package prix

import (
	"math"

	"repro/internal/btree"
	"repro/internal/hot"
	"repro/internal/vtrie"
)

// This file wires the in-memory hot tier (internal/hot) into the query path.
// With Options.HotBudget > 0 the index keeps, under one LRU byte budget:
//
//   - one bit-packed posting list per symbol (its key-prefix range of the
//     postings tree), serving the Algorithm 1 range scans without touching
//     the forest;
//   - the bit-packed Docid list, serving the terminal docid scans.
//
// Algorithm 2 needs no tier: it navigates the store's resident shape
// dictionary in place, tier or not.
//
// Everything in the tier is a verified cache of the authoritative B+-tree
// image: lists replay the source tree's Scan order entry for entry, and
// every writer (dynamic insert, forest rebuild) invalidates what it touches —
// so results are byte-identical to the paged path at every parallelism
// setting.
//
// Tier reads and lazy builds happen under repairMu.RLock; every structural
// writer holds repairMu.Lock, so a build always snapshots a stable image. A
// query resolves its lists once (compile) and keeps their views for its whole
// run: a view aliases bytes the tier never rewrites, so it stays valid even
// if the tier evicts, invalidates or repacks the structure meanwhile.
//
// Every build reads its pages without filling the buffer pool
// (btree.Tree.ScanNoFill): a page read only to be copied into the tier is not
// kept a second time as a pool frame. Pages the pool already holds, dirty
// ones included, are read from their frames. The paged path's tree scans
// still fill the pool as before.

// Tier keys: comparable structs, built per lookup without allocating.
var docidKey = hot.Key{Kind: hot.KindDocIDs}

func symKey(s vtrie.Symbol) hot.Key { return hot.Key{Kind: hot.KindPostings, ID: uint32(s)} }

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

// buildHotPostings gathers one symbol's postings into b by replaying the
// Scan of its whole key-prefix range; entry order is exactly the tree's, so a
// hot Scan emits what the tree's Scan would.
func (ix *Index) buildHotPostings(s vtrie.Symbol, b *hot.PostingsBuilder) error {
	lo, hi := postingKey(s, 0), postingKey(s, math.MaxUint64)
	return ix.postings.ScanPostingsNoFill(lo[:], hi[:], true, true, func(_ uint32, left, right uint64, level uint32) bool {
		b.Add(left, right, level)
		return true
	})
}

// buildHotDocIDs gathers the Docid tree into b the same way.
func buildHotDocIDs(tree *btree.Tree, b *hot.DocIDsBuilder) error {
	return tree.ScanDocIDsNoFill(nil, nil, true, true, func(term uint64, id uint32, tomb uint64) bool {
		if tomb == 0 { // tombstones live in the same tree but are not entries
			b.Add(term, id)
		}
		return true
	})
}

// admitHot is a query's admission of a structure it just built: it displaces
// colder entries, and what still does not fit is marked rejected so later
// misses do not rebuild it. The preload's admissions (TryAdd) take free room
// only and mark nothing, so a later query may still admit the structure.
func (ix *Index) admitHot(key hot.Key, e hot.Entry) bool {
	if ix.hot.Add(key, e) {
		return true
	}
	ix.hot.Reject(key)
	return false
}

// hotPostings returns the resident list of one symbol, building and
// admitting it on a miss. ok false means the scan must go to the tree: no
// tier, over budget, or a build I/O error the tree path will surface itself.
// A list built here is returned as its builder's view, encoded once; the
// tier keeps a copy.
func (ix *Index) hotPostings(s vtrie.Symbol) (hot.Postings, bool) {
	if ix.hot == nil {
		return hot.Postings{}, false
	}
	if p, ok := ix.hot.Postings(uint32(s)); ok {
		return p, true
	}
	if ix.hot.Rejected(symKey(s)) {
		return hot.Postings{}, false
	}
	b := hot.NewPostingsBuilder()
	if ix.buildHotPostings(s, b) != nil {
		return hot.Postings{}, false
	}
	p := b.View()
	return p, ix.admitHot(symKey(s), p.Entry())
}

// hotDocIDs is hotPostings for the Docid index.
func (ix *Index) hotDocIDs() (hot.DocIDs, bool) {
	if ix.hot == nil || ix.docid == nil {
		return hot.DocIDs{}, false
	}
	if d, ok := ix.hot.DocIDs(); ok {
		return d, true
	}
	if ix.hot.Rejected(docidKey) {
		return hot.DocIDs{}, false
	}
	b := hot.NewDocIDsBuilder()
	if buildHotDocIDs(ix.docid, b) != nil {
		return hot.DocIDs{}, false
	}
	d := b.View()
	return d, ix.admitHot(docidKey, d.Entry())
}

// hotInvalidateTree drops one symbol's resident list (a posting was
// inserted).
func (ix *Index) hotInvalidateTree(s vtrie.Symbol) {
	if ix.hot != nil {
		ix.hot.Invalidate(symKey(s))
	}
}

// hotInvalidateDocid drops the resident docid list.
func (ix *Index) hotInvalidateDocid() {
	if ix.hot != nil {
		ix.hot.Invalidate(docidKey)
	}
}

// hotInvalidateAll empties the tier (forest rebuild replaced everything).
func (ix *Index) hotInvalidateAll() {
	if ix.hot != nil {
		ix.hot.InvalidateAll()
	}
}

// PreloadHot fills the tier in priority order — the docid list, then every
// symbol's posting list ascending — without evicting anything already
// loaded; it stops at the first structure that no longer fits. Lists are
// built in one reused builder, encoded into its buffer and copied straight
// into the tier's arena, and the tier is trimmed to exact size at the end.
// Its residency probes count no hits or misses. A postings page that fails to
// read stops the preload there, and the list it interrupted is not admitted:
// a short list would answer queries without the error the tree path reports.
// Open and the builders call it automatically; it is a no-op without a tier.
// Callers that own the index exclusively may call it again after bulk
// mutations.
func (ix *Index) PreloadHot() {
	if ix.hot == nil {
		return
	}
	defer ix.hot.Trim()
	if ix.docid != nil {
		if !ix.hot.Resident(docidKey) {
			b := hot.NewDocIDsBuilder()
			if buildHotDocIDs(ix.docid, b) != nil || !ix.hot.TryAdd(docidKey, b.View().Entry()) {
				return
			}
		}
	}
	// One pass over the postings tree, cut into a list wherever the key's
	// symbol prefix changes; b holds the current symbol's list, empty only
	// before the first key.
	var (
		b    = hot.NewPostingsBuilder()
		cur  vtrie.Symbol
		full bool
	)
	admit := func() bool {
		if b.Len() == 0 {
			return true
		}
		if ix.hot.Resident(symKey(cur)) {
			return true
		}
		return ix.hot.TryAdd(symKey(cur), b.View().Entry())
	}
	err := ix.postings.ScanPostingsNoFill(nil, nil, true, true, func(s uint32, left, right uint64, level uint32) bool {
		if sym := vtrie.Symbol(s); b.Len() == 0 || sym != cur {
			if full = !admit(); full {
				return false
			}
			b.Reset()
			cur = sym
		}
		b.Add(left, right, level)
		return true
	})
	if err == nil && !full {
		admit()
	}
}
