package prix

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/twig"
)

// RiskOfFalseDismissal reports whether the query falls into the published
// algorithm's known incompleteness corner (see DESIGN.md): two or more
// branches attached by non-exact edges, whose proxy witnesses can be left
// without an admissible subsequence position. Queries outside this class
// are answered exactly by Match.
func RiskOfFalseDismissal(q *twig.Query) bool {
	// The leading // is harmless: the root needs no proxy position.
	return wildcardBranches(q.Root) >= 2
}

// wildcardBranches counts the non-exact edges below n.
func wildcardBranches(n *twig.Node) int {
	count := 0
	for _, c := range n.Children {
		if !c.Edge.Exact() {
			count++
		}
		count += wildcardBranches(c)
	}
	return count
}

// MatchExhaustive guarantees completeness for every query, including the
// multi-branch wildcard corner, by combining the index's subsequence
// matching with a per-document embedding enumeration: candidate documents
// are located through the index (one single-label probe per distinct query
// label, intersected), reconstructed from the stored sequences, and matched
// with the exact embedding semantics. For queries outside the risk class it
// simply delegates to Match. The trade-off is documented: candidate
// enumeration touches every document containing all the query's labels.
func (ix *Index) MatchExhaustive(q *twig.Query, opts MatchOptions) ([]Match, *QueryStats, error) {
	pagesBefore := ix.PagesRead()
	ms, stats, err := ix.Match(q, opts)
	switch {
	case errors.Is(err, ErrNeedsExtendedIndex):
		// The RPIndex cannot run the filtering phase for this query at
		// all; fall through with no index-found matches and rely on the
		// exhaustive pass alone.
		ms, stats, err = nil, &QueryStats{}, nil
	case err != nil:
		return nil, nil, err
	case !RiskOfFalseDismissal(q):
		// Outside the risk class the index answer is already complete.
		return ms, stats, nil
	}
	if err != nil {
		return nil, nil, err
	}
	// Re-check every candidate document exhaustively. Documents already
	// containing index-found matches are re-enumerated too, so the result
	// is exactly the brute-force answer.
	docSet := map[uint32]bool{}
	for _, m := range ms {
		docSet[m.DocID] = true
	}
	more, err := ix.candidateDocs(q, opts.AsOf, stats)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range more {
		docSet[d] = true
	}
	var out []Match
	for docID := range docSet {
		if err := opts.context().Err(); err != nil {
			return nil, nil, fmt.Errorf("prix: match canceled: %w", err)
		}
		doc, err := ix.reconstructAsOf(docID, opts.AsOf, stats)
		if err != nil {
			if IsCorruption(err) {
				ix.store.Quarantine(docID)
				ix.hotInvalidateDoc(docID)
				stats.Degraded = true
				continue
			}
			return nil, nil, err
		}
		if doc == nil {
			continue // quarantined or invisible at the requested version
		}
		var embs []twig.Embedding
		if opts.Unordered {
			arr, _ := q.Arrangements(arrangementLimit)
			seen := map[string]bool{}
			for _, a := range arr {
				for _, e := range twig.MatchBruteForce(a, doc) {
					k := imageKeyOfInts(e)
					if !seen[k] {
						seen[k] = true
						embs = append(embs, e)
					}
				}
			}
		} else {
			embs = twig.MatchBruteForce(q, doc)
		}
		for _, e := range embs {
			images := make([]int32, len(e))
			for i, v := range e {
				images[i] = int32(v)
			}
			out = append(out, Match{
				DocID:  docID,
				Images: images,
				Root:   images[len(images)-1],
			})
		}
		stats.Candidates++
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DocID != out[j].DocID {
			return out[i].DocID < out[j].DocID
		}
		return compareInt32s(out[i].Images, out[j].Images) < 0
	})
	stats.Matches = len(out)
	// Delta, not absolute: the counters are monotonic across queries, and
	// this span covers both the inner index match and the exhaustive pass.
	stats.PagesRead = ix.PagesRead() - pagesBefore
	return out, stats, nil
}

func imageKeyOfInts(e twig.Embedding) string {
	b := make([]byte, 0, len(e)*5)
	vals := append([]int(nil), e...)
	sort.Ints(vals)
	for _, v := range vals {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
	}
	return string(b)
}

// candidateDocs returns the documents containing every distinct label of
// the query, found by intersecting per-label document sets derived from
// the stored records. This is a linear pass over the document store —
// deliberately simple; the exhaustive path trades speed for completeness.
func (ix *Index) candidateDocs(q *twig.Query, asOf uint64, stats *QueryStats) ([]uint32, error) {
	ix.repairMu.RLock()
	defer ix.repairMu.RUnlock()
	dict := ix.store.Dict()
	want := map[int64]bool{} // symbol set of the query
	ok := true
	var collect func(n *twig.Node)
	collect = func(n *twig.Node) {
		sym, found := LookupSymbol(dict, n.Label, n.IsValue)
		if !found {
			ok = false
			return
		}
		want[int64(sym)] = true
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(q.Root)
	if !ok {
		return nil, nil
	}
	var out []uint32
	for docID := 0; docID < ix.store.NumDocs(); docID++ {
		if !ix.docVisibleAt(uint32(docID), asOf) {
			continue
		}
		rec, err := ix.getRecordAsOf(uint32(docID), asOf, stats)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			continue // quarantined
		}
		have := map[int64]bool{}
		for _, s := range rec.LPS {
			have[int64(s)] = true
		}
		for _, l := range rec.Leaves {
			have[int64(l.Sym)] = true
		}
		all := true
		for s := range want {
			if !have[s] {
				all = false
				break
			}
		}
		if all {
			out = append(out, uint32(docID))
		}
	}
	return out, nil
}
