package prix

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/twig"
)

// This file holds the schedulers that spread one query over workers. Three
// independent axes of the read-only query path are decomposed:
//
//   - within one (arranged) query, the Algorithm 1 walk (descent, match.go)
//     hands trie subtrees to free workers, and every walker refines the
//     candidates it finds where it finds them (refineInline), as the walk
//     does at Parallelism 1; reduce merges the walkers' survivors;
//   - an unordered query's branch arrangements fan out across workers
//     instead of looping (matchArrangements);
//   - single-node queries shard the document scan (single.go).
//
// Determinism contract: when the walk can spawn, every staged survivor keeps
// its descent path, which orders survivors exactly as a depth-first walk on
// one goroutine finds them; the reduction dedups in that order, and
// arrangement results are deduplicated in arrangement order — so any
// Parallelism setting returns byte-identical matches and identical stats.
// Walkers write only their own QueryStats slot; the slots are merged after
// the walk joins.

// matchArrangements runs every branch arrangement of q (§5.7), refusing
// more than arrangementLimit, and applies the unordered image-set
// deduplication in arrangement order. With one arrangement (or one worker)
// the arrangements run in turn; with several they fan out over
// min(workers, arrangements) goroutines, and the first failure cancels the
// rest through a derived context. Either way every arrangement's walk keeps
// the whole worker budget: the descent subtree fan-out is where a cold
// query's I/O waits actually overlap (nearly all pages are forest pages),
// and arrangements alone overlap poorly — they touch near-identical page
// sets in near-identical order, so the coalescing pager chains their waits
// instead of spreading them. The extra goroutines are I/O-parked almost
// always and cost no meaningful CPU.
func (ix *Index) matchArrangements(q *twig.Query, opts MatchOptions, stats *QueryStats, sp *obs.Span) ([]Match, error) {
	queries, truncated := q.Arrangements(arrangementLimit)
	if truncated {
		return nil, fmt.Errorf("prix: too many branch arrangements for unordered match of %q", q)
	}
	ctx, cancel := context.WithCancel(opts.context())
	defer cancel()
	// Every arrangement packs into memory of its own, which the image-set
	// dedup below keeps.
	opts.Into, opts.Ctx = nil, ctx
	workers := opts.workers()
	perArrangement := make([][]Match, len(queries))
	astats := make([]QueryStats, len(queries))
	errs := make([]error, len(queries))
	run := func(qi int) {
		// One span per arrangement (keyed by arrangement index, so
		// concurrent completion order never reorders the trace); a
		// single-arrangement query hangs filter/refine off sp directly.
		asp := sp
		if sp != nil && len(queries) > 1 {
			asp = sp.ChildKeyed("arrangement", obs.OrdinalKey(qi))
			asp.SetStringer("query", queries[qi])
		}
		perArrangement[qi], errs[qi] = ix.matchSplit(queries[qi], opts, &astats[qi], workers, asp)
		if asp != sp {
			asp.End()
		}
		if errs[qi] != nil {
			cancel()
		}
	}
	if len(queries) == 1 || workers <= 1 {
		for qi := range queries {
			if run(qi); errs[qi] != nil {
				break
			}
		}
	} else {
		idxCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < min(workers, len(queries)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for qi := range idxCh {
					run(qi)
				}
			}()
		}
		for qi := range queries {
			idxCh <- qi
		}
		close(idxCh)
		wg.Wait()
	}
	for qi := range astats {
		stats.merge(&astats[qi])
	}
	// Among several failures the lowest arrangement index wins, so the
	// reported error is deterministic.
	if err := cause(nil, errs); err != nil {
		return nil, err
	}
	t0 := sp.Start()
	seen := map[string]bool{}
	var out []Match
	var imgs []int32
	var key []byte
	for _, ms := range perArrangement {
		for _, m := range ms {
			imgs = append(imgs[:0], m.Images...)
			slices.Sort(imgs)
			key = appendKey(key[:0], m.DocID, imgs)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			out = append(out, m)
		}
	}
	sp.Stage(obs.StageReduce, t0)
	return out, nil
}

// reduce merges the survivors of a walk that could spawn onto sc's stage:
// the branches' (handed to sc.found as each finished) and the root walk's own.
// Each walker kept the first of its own duplicate embeddings; restaging them
// all in descent-path order — the order a walk on one goroutine finds them —
// and deduplicating again keeps exactly the witness that walk keeps.
func (sc *scratch) reduce() {
	all, st := &sc.found, &sc.stage
	all.absorb(st)
	w := len(sc.path)
	order := sc.order[:0]
	for k := range all.ids {
		order = append(order, int32(k))
	}
	slices.SortFunc(order, func(a, b int32) int {
		return slices.Compare(all.paths[int(a)*w:int(a+1)*w], all.paths[int(b)*w:int(b+1)*w])
	})
	st.reset(st.ls, st.m)
	for _, k := range order {
		st.pushCopy(all, int(k))
		st.keepLast()
	}
	sc.order = order
}

// appendKey renders a document id plus a position (or image) list as
// map-key bytes: the unordered image-set dedup key.
func appendKey(b []byte, docID uint32, vals []int32) []byte {
	b = binary.LittleEndian.AppendUint32(b, docID)
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}
