package prix

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/docstore"
	"repro/internal/obs"
	"repro/internal/twig"
	"repro/internal/vtrie"
)

// matchSingleNode answers single-node queries (e.g. //author, /dblp). A
// one-node twig has an empty Prüfer sequence, so it cannot be answered by
// subsequence matching (the paper never evaluates such queries); instead
// the document store is scanned and every node with the right label is
// reported, subject to the query's root-depth constraint. This is a linear
// scan by design — a workload needing fast single-tag lookup should keep a
// tag-occurrence index such as the twigstack package's streams.
func (ix *Index) matchSingleNode(q *twig.Query, opts MatchOptions, stats *QueryStats, sp *obs.Span) ([]Match, error) {
	sym, ok := LookupSymbol(ix.store.Dict(), q.Root.Label, q.Root.IsValue)
	if !ok {
		return nil, nil
	}
	n := ix.store.NumDocs()
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var ssp *obs.Span
		if sp != nil {
			ssp = sp.ChildKeyed("scan", "000")
		}
		return ix.scanSingleNode(q, opts, stats, sym, 0, n, ssp)
	}
	// Shard [0, n) into contiguous docid ranges, one worker each; the
	// one-goroutine scan emits in ascending docid order, so concatenating the
	// shards in range order reproduces it exactly. Each worker gets its
	// own stats slot, merged below. Shard spans are created here, keyed
	// by ordinal, so the trace never depends on completion order.
	outs := make([][]Match, workers)
	wstats := make([]QueryStats, workers)
	errs := make([]error, workers)
	sspans := make([]*obs.Span, workers)
	if sp != nil {
		for w := range sspans {
			sspans[w] = sp.ChildKeyed("scan", fmt.Sprintf("%03d", w))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			outs[w], errs[w] = ix.scanSingleNode(q, opts, &wstats[w], sym, lo, hi, sspans[w])
		}(w, lo, hi)
	}
	wg.Wait()
	var out []Match
	for w := 0; w < workers; w++ {
		stats.merge(&wstats[w])
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		out = append(out, outs[w]...)
	}
	return out, nil
}

// scanSingleNode scans the docid range [lo, hi) for the labeled nodes,
// reading each current image from the store's resident shape and LPS and a
// superseded one from its record. Fetches are charged to the fetch stage;
// the label matching that remains is credited as descent (the scan is this
// query class's walk).
func (ix *Index) scanSingleNode(q *twig.Query, opts MatchOptions, stats *QueryStats,
	sym vtrie.Symbol, lo, hi int, sp *obs.Span) ([]Match, error) {
	s0 := sp.Start()
	defer func() {
		if sp != nil {
			walk := sp.Now() - s0 - sp.StageNS(obs.StageFetch)
			sp.AddStage(obs.StageDescent, time.Duration(walk), 1)
			sp.End()
		}
	}()
	var (
		out  []Match
		rec  docstore.Record
		view docstore.View
	)
	for docID := lo; docID < hi; docID++ {
		if docID%64 == 0 {
			if err := opts.context().Err(); err != nil {
				return nil, fmt.Errorf("prix: match canceled: %w", err)
			}
		}
		if !ix.docVisibleAt(uint32(docID), opts.AsOf) {
			continue // deleted (or not yet inserted) at the requested version
		}
		t0 := sp.Start()
		doc, err := ix.fetchAsOf(uint32(docID), opts.AsOf, stats, &rec, &view)
		if err == nil && doc == docShape(&view) {
			// The current image, resident: the whole record from it.
			if err = view.Fill(&rec); err != nil {
				doc, err = nil, ix.degrade(uint32(docID), true, err, stats)
			}
		}
		sp.Stage(obs.StageFetch, t0)
		if err != nil {
			return nil, err
		}
		if doc == nil {
			continue // quarantined: serve the healthy documents
		}
		stats.Candidates++
		for _, post := range nodesWithLabel(&rec, sym) {
			depth := rootDepth(&rec, post)
			if depth < q.RootEdge.Min {
				continue
			}
			if q.RootEdge.Max != twig.Unbounded && depth > q.RootEdge.Max {
				continue
			}
			out = append(out, Match{
				DocID:  uint32(docID),
				Images: []int32{post},
				Root:   post,
			})
		}
	}
	return out, nil
}

// nodesWithLabel returns the postorder numbers of every node in the record
// carrying the symbol, sorted ascending: leaves from the leaf list,
// internal nodes from the LPS/NPS pair (a node with k children appears k
// times in the NPS, so the set is deduplicated).
func nodesWithLabel(rec *docstore.Record, sym vtrie.Symbol) []int32 {
	seen := map[int32]bool{}
	var out []int32
	add := func(post int32) {
		if !seen[post] {
			seen[post] = true
			out = append(out, post)
		}
	}
	for _, l := range rec.Leaves {
		if l.Sym == sym {
			add(l.Post)
		}
	}
	for i, s := range rec.LPS {
		if s == sym {
			add(rec.NPS[i])
		}
	}
	slices.Sort(out)
	return out
}
