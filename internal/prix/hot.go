package prix

import (
	"math"
	"sync"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/hot"
	"repro/internal/vtrie"
)

// This file wires the in-memory hot tier (internal/hot) into the query path.
// With Options.HotBudget > 0 the index keeps, under one LRU byte budget:
//
//   - one flat posting list per symbol (its key-prefix range of the
//     postings tree), serving the Algorithm 1 range scans without touching
//     the forest;
//   - the flat Docid list, serving the terminal docid scans;
//   - one bit-packed structure summary per document, which Algorithm 2
//     navigates in place instead of fetching the record from the store.
//
// Everything in the tier is a verified cache of the authoritative B+-tree /
// docstore image: lists replay the source tree's Scan order entry for
// entry, summaries are round-trip-checked at admission, and every writer
// (dynamic insert, record rewrite, forest rebuild) invalidates what it
// touches — so results are byte-identical to the paged path at every
// parallelism setting. Quarantined documents are re-checked on every hot
// record hit and bypass the tier.
//
// Tier reads and lazy builds happen under repairMu.RLock; every structural
// writer holds repairMu.Lock, so a build always snapshots a stable image —
// which is also why a query may resolve its lists once (compile) and keep
// the pointers for its whole run.
//
// Every build reads its pages without filling the buffer pools
// (btree.Tree.ScanNoFill, docstore.Store.ScanNoFill): a page read only to
// be copied into the tier is not kept a second time as a pool frame. Pages
// the pool already holds, dirty ones included, are read from their frames.
// The paged path (tree scans, admitHotRecord's store reads) still fills the
// pool as before.

// hotState owns the tier plus admission bookkeeping. The rejected set
// remembers keys whose built structure exceeded the whole budget, so a
// query does not rebuild (and re-reject) an oversized list on every miss;
// an invalidation clears the mark because the source data changed size.
type hotState struct {
	tier     *hot.Tier
	mu       sync.Mutex
	rejected map[hot.Key]bool
}

func (h *hotState) skipBuild(key hot.Key) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rejected[key]
}

func (h *hotState) markRejected(key hot.Key) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rejected[key] = true
}

func (h *hotState) invalidate(key hot.Key) {
	h.tier.Invalidate(key)
	h.mu.Lock()
	delete(h.rejected, key)
	h.mu.Unlock()
}

func (h *hotState) invalidateAll() {
	h.tier.InvalidateAll()
	h.mu.Lock()
	h.rejected = map[hot.Key]bool{}
	h.mu.Unlock()
}

// Tier keys: comparable structs, built per lookup without allocating.
var docidKey = hot.Key{Kind: hot.KindDocIDs}

func symKey(s vtrie.Symbol) hot.Key { return hot.Key{Kind: hot.KindPostings, ID: uint32(s)} }
func recKey(docID uint32) hot.Key   { return hot.Key{Kind: hot.KindSummary, ID: docID} }

// initHot creates the tier when the options enable it.
func (ix *Index) initHot() {
	if ix.opts.HotBudget > 0 {
		ix.hot = &hotState{tier: hot.NewTier(ix.opts.HotBudget), rejected: map[hot.Key]bool{}}
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
	return HotStats{Enabled: true, Tier: ix.hot.tier.Stats()}
}

// buildHotPostings flattens one symbol's postings by replaying the Scan of
// its whole key-prefix range; entry order is exactly the tree's, so a hot
// Scan emits what the tree's Scan would.
func (ix *Index) buildHotPostings(s vtrie.Symbol) (*hot.Postings, error) {
	b := hot.NewPostingsBuilder()
	lo, hi := postingKey(s, 0), postingKey(s, math.MaxUint64)
	err := ix.postings.ScanNoFill(lo[:], hi[:], true, true, func(k, v []byte) bool {
		_, left := decodePostingKey(k)
		r, lvl := decodePosting(v)
		b.Add(left, r, lvl)
		return true
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// buildHotDocIDs flattens the Docid tree the same way.
func buildHotDocIDs(tree *btree.Tree) (*hot.DocIDs, error) {
	b := hot.NewDocIDsBuilder()
	err := tree.ScanNoFill(btree.KeyUint64(0), btree.KeyUint64(math.MaxUint64), true, true, func(k, v []byte) bool {
		if len(v) != 4 {
			return true // tombstones live in the same tree but are not entries
		}
		b.Add(btree.Uint64Key(k), decodeDocID(v))
		return true
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// resident returns the structure under key, building and admitting it on a
// miss. ok false means it is not resident: over budget, or a build I/O error
// the tree path will surface itself. A query's admission (evict) displaces
// colder entries, and what still does not fit is marked rejected; the
// preload's takes free room only and marks nothing, so a later query may
// still admit the structure.
func resident[T hot.Sized](h *hotState, key hot.Key, evict bool, build func() (T, error)) (v T, ok bool) {
	if got, hit := h.tier.Get(key); hit {
		return got.(T), true
	}
	if h.skipBuild(key) {
		return v, false
	}
	built, err := build()
	if err != nil {
		return v, false
	}
	if evict {
		if !h.tier.Add(key, built) {
			h.markRejected(key)
			return v, false
		}
	} else if !h.tier.TryAdd(key, built) {
		return v, false
	}
	return built, true
}

// hotPostings returns the resident list of one symbol; nil means the scan
// must go to the tree (tier disabled, or see resident).
func (ix *Index) hotPostings(s vtrie.Symbol) *hot.Postings {
	if ix.hot == nil {
		return nil
	}
	p, _ := resident(ix.hot, symKey(s), true, func() (*hot.Postings, error) { return ix.buildHotPostings(s) })
	return p
}

// hotDocIDs is hotPostings for the Docid index.
func (ix *Index) hotDocIDs() *hot.DocIDs {
	if ix.hot == nil || ix.docid == nil {
		return nil
	}
	d, _ := resident(ix.hot, docidKey, true, func() (*hot.DocIDs, error) { return buildHotDocIDs(ix.docid) })
	return d
}

// hotSummary returns the resident structure summary for a document, or nil.
// Admission happens separately (admitHotRecord) so the miss path charges
// the store read, not the getter.
func (ix *Index) hotSummary(docID uint32) *hot.Summary {
	if ix.hot == nil {
		return nil
	}
	if v, ok := ix.hot.tier.Get(recKey(docID)); ok {
		return v.(*hot.Summary)
	}
	return nil
}

// admitHotRecord tries to cache a just-fetched record as a summary. A
// record the packed encoding cannot reproduce exactly is simply not
// admitted (NewSummary returns nil after its round-trip check).
func (ix *Index) admitHotRecord(rec *docstore.Record) {
	if ix.hot == nil || rec == nil {
		return
	}
	key := recKey(rec.DocID)
	if ix.hot.skipBuild(key) {
		return
	}
	s := hot.NewSummary(rec)
	if s == nil {
		ix.hot.markRejected(key)
		return
	}
	if !ix.hot.tier.Add(key, s) {
		ix.hot.markRejected(key)
	}
}

// hotInvalidateTree drops one symbol's resident list (a posting was
// inserted).
func (ix *Index) hotInvalidateTree(s vtrie.Symbol) {
	if ix.hot != nil {
		ix.hot.invalidate(symKey(s))
	}
}

// hotInvalidateDocid drops the resident docid list.
func (ix *Index) hotInvalidateDocid() {
	if ix.hot != nil {
		ix.hot.invalidate(docidKey)
	}
}

// hotInvalidateDoc drops one document's summary (rewrite or quarantine).
func (ix *Index) hotInvalidateDoc(docID uint32) {
	if ix.hot != nil {
		ix.hot.invalidate(recKey(docID))
	}
}

// hotInvalidateAll empties the tier (forest rebuild replaced everything).
func (ix *Index) hotInvalidateAll() {
	if ix.hot != nil {
		ix.hot.invalidateAll()
	}
}

// PreloadHot fills the tier in priority order — the docid list, then every
// symbol's posting list ascending, then document summaries ascending — without
// evicting anything already loaded; each phase stops at the first structure
// that no longer fits. A postings page that fails to read stops the preload
// there, and the list it interrupted is not admitted: a short list would
// answer queries without the error the tree path reports (an unreadable record
// only goes without a summary). Open and the builders call it
// automatically; it is a no-op without a tier. Callers that own the index
// exclusively may call it again after bulk mutations.
func (ix *Index) PreloadHot() {
	if ix.hot == nil {
		return
	}
	if ix.docid != nil {
		if _, ok := resident(ix.hot, docidKey, false, func() (*hot.DocIDs, error) { return buildHotDocIDs(ix.docid) }); !ok {
			return
		}
	}
	// One pass over the postings tree, cut into a list wherever the key's
	// symbol prefix changes.
	var (
		b    *hot.PostingsBuilder
		cur  vtrie.Symbol
		full bool
	)
	admit := func() bool {
		if b == nil {
			return true
		}
		_, ok := resident(ix.hot, symKey(cur), false, func() (*hot.Postings, error) { return b.Build(), nil })
		return ok
	}
	err := ix.postings.ScanNoFill(nil, nil, true, true, func(k, v []byte) bool {
		sym, left := decodePostingKey(k)
		if b == nil || sym != cur {
			if full = !admit(); full {
				return false
			}
			b, cur = hot.NewPostingsBuilder(), sym
		}
		r, lvl := decodePosting(v)
		b.Add(left, r, lvl)
		return true
	})
	if err != nil {
		return
	}
	if !full {
		admit()
	}
	var rec docstore.Record
	ix.store.ScanNoFill(&rec, func(r *docstore.Record) bool {
		key := recKey(r.DocID)
		if _, ok := ix.hot.tier.Get(key); ok {
			return true
		}
		s := hot.NewSummary(r)
		return s == nil || ix.hot.tier.TryAdd(key, s)
	})
}
