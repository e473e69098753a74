package prix

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/docstore"
	"repro/internal/obs"
	"repro/internal/twig"
)

// This file holds the schedulers that spread one query over workers. Three
// independent axes of the read-only query path are decomposed:
//
//   - within one (arranged) query, the Algorithm 1 walk (descent, match.go)
//     hands trie subtrees to free workers and emits (document, subsequence)
//     candidates into a bounded channel consumed by a pool running
//     Algorithm 2 refinement (matchPipelined);
//   - an unordered query's branch arrangements fan out across workers
//     instead of looping (matchArrangements);
//   - single-node queries shard the document scan (single.go).
//
// Determinism contract: every candidate carries its descent path, which
// orders candidates exactly as a depth-first walk on one goroutine emits
// them; reductions happen in that order, and arrangement results are
// deduplicated in arrangement order — so any Parallelism setting returns
// byte-identical matches and identical counter stats. Workers write only
// their own QueryStats slot; the slots are merged after the pool drains.

// matchArrangements runs every arranged query and applies the unordered
// image-set deduplication in arrangement order. With one arrangement the
// full worker budget goes to the refinement pipeline; with several,
// arrangements are the coarser (and cheaper) unit, so they get the workers
// and split the remainder.
func (ix *Index) matchArrangements(queries []*twig.Query, opts MatchOptions, stats *QueryStats, sp *obs.Span) ([]Match, error) {
	workers := opts.workers()
	perArrangement := make([][]Match, len(queries))
	// One span per arrangement (keyed by arrangement index, so concurrent
	// completion order never reorders the trace); a single-arrangement
	// query skips the extra level and hangs filter/refine off sp directly.
	arrSpans := make([]*obs.Span, len(queries))
	if sp != nil && len(queries) > 1 {
		for qi, qq := range queries {
			arrSpans[qi] = sp.ChildKeyed("arrangement", fmt.Sprintf("%03d", qi))
			arrSpans[qi].SetStringer("query", qq)
		}
	}
	spanFor := func(qi int) *obs.Span {
		if arrSpans[qi] != nil {
			return arrSpans[qi]
		}
		return sp
	}
	if len(queries) == 1 || workers <= 1 {
		for qi, qq := range queries {
			ms, err := ix.matchOrdered(qq, opts, stats, workers, nil, spanFor(qi))
			arrSpans[qi].End()
			if err != nil {
				return nil, err
			}
			perArrangement[qi] = ms
		}
	} else if err := ix.fanOutArrangements(queries, opts, stats, workers, perArrangement, arrSpans); err != nil {
		return nil, err
	}
	if !opts.Unordered {
		return perArrangement[0], nil
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

// fanOutArrangements distributes the arranged queries over min(workers,
// len(queries)) goroutines, each arrangement running matchOrdered with the
// leftover worker budget. All arrangements share one memoizing record
// cache: their candidate sets overlap heavily (the same documents survive
// filtering under every branch order), so each record is fetched and
// decoded once per query instead of once per candidate per arrangement.
// The first failure cancels the rest through a derived context.
func (ix *Index) fanOutArrangements(queries []*twig.Query, opts MatchOptions, stats *QueryStats,
	workers int, perArrangement [][]Match, arrSpans []*obs.Span) error {
	ctx, cancel := context.WithCancel(opts.context())
	defer cancel()
	aopts := opts
	aopts.Ctx = ctx
	aw := workers
	if len(queries) < aw {
		aw = len(queries)
	}
	// Every arrangement keeps the full worker budget for its own pipeline:
	// the descent subtree fan-out is where a cold query's I/O waits
	// actually overlap (nearly all pages are forest pages), and
	// arrangements alone overlap poorly — they touch near-identical page
	// sets in near-identical order, so the coalescing pager chains their
	// waits instead of spreading them. The extra goroutines (aw·inner >
	// workers) are I/O-parked almost always and cost no meaningful CPU.
	inner := workers
	cache := newRecordCache(ix, opts.AsOf)
	astats := make([]QueryStats, len(queries))
	errs := make([]error, len(queries))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < aw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range idxCh {
				ms, err := ix.matchOrdered(queries[qi], aopts, &astats[qi], inner, cache.get, arrSpans[qi])
				arrSpans[qi].End()
				if err != nil {
					errs[qi] = err
					cancel()
					continue
				}
				perArrangement[qi] = ms
			}
		}()
	}
	for qi := range queries {
		idxCh <- qi
	}
	close(idxCh)
	wg.Wait()
	for qi := range astats {
		stats.merge(&astats[qi])
	}
	// Prefer the real failure over the cancellations it caused in the
	// other arrangements; among several, the lowest arrangement index wins
	// so the reported error is deterministic.
	var ctxErr, realErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctxErr == nil {
				ctxErr = err
			}
		default:
			if realErr == nil {
				realErr = err
			}
		}
	}
	if realErr != nil {
		return realErr
	}
	return ctxErr
}

// errRefineAborted unblocks the trie descent once a refinement worker has
// failed; the worker's error replaces it at the pipeline's mouth.
var errRefineAborted = errors.New("prix: refinement aborted")

// candidate is one (document, subsequence) tuple crossing the Algorithm 1
// → Algorithm 2 boundary, and its (document, S) dedup slot. block is the one
// allocation a unique candidate costs: a copy of S — the descent writes its
// own in place — then ord, the least descent path over every emission of the
// tuple, which is where a walk on one goroutine would have refined it first,
// so the reduction recovers that order no matter which concurrent emission
// reached the refinement pool first. S is read by one refinement worker; ord
// is written under the pipeline's dedup mutex and read by the reduction after
// every producer and worker has joined.
type candidate struct {
	docID uint32
	block []int32
}

// refined is one surviving match — number k on worker w's stage — with its
// candidate's ord.
type refined struct {
	ord  []int32
	w, k int32
}

// matchPipelined is the scheduler that decouples Algorithm 1 from
// Algorithm 2: it gives d a semaphore, so free workers take whole hit
// subtrees of the walk, an emit that streams candidates into a bounded
// channel and, unless the caller set one, a per-query memoizing record cache
// as its fetch; d.par goroutines refine them concurrently, each with its own
// QueryStats slot and its own scratch (N and the stage its surviving matches
// wait on). Identical (document, S) candidates are deduplicated at emission
// so the same record is refined once (they can only produce the identical
// match the embedding dedup would drop anyway); the Candidates counter still
// counts every emission. sc is the caller's scratch: it holds the plan, runs
// the root walk and stages the reduced result.
func (ix *Index) matchPipelined(d *descent, stats *QueryStats, sc *scratch, sp *obs.Span) ([]Match, error) {
	p, workers, n, rsp := d.p, d.par, len(d.p.syms), d.rsp
	ch := make(chan candidate, 2*workers)
	abort := make(chan struct{})
	var abortOnce sync.Once
	var workerErr error // written once under abortOnce, read after wg.Wait
	wstats := make([]QueryStats, workers)
	wout := make([][]refined, workers)
	wscs := make([]*scratch, workers)
	if d.fetch == nil {
		d.fetch = newRecordCache(ix, d.opts.AsOf).get
	}
	// Worker spans are created up front on this goroutine, keyed by the
	// worker ordinal: their creation order (and so the trace) never
	// depends on pool scheduling. Each worker owns its span exclusively.
	wspans := make([]*obs.Span, workers)
	if rsp != nil {
		for w := range wspans {
			wspans[w] = rsp.ChildKeyed("worker", fmt.Sprintf("%03d", w))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wsc := getScratch()
		wsc.levels(n)
		wsc.stage.reset(n, p.m)
		wscs[w] = wsc // returned to the pool once the reduction has copied out of it
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsp := wspans[w]
			for {
				t0 := wsp.Start()
				c, open := <-ch
				wsp.Stage(obs.StageCandWait, t0)
				if !open {
					break
				}
				ok, err := d.refine(c.docID, c.block[:n], &wstats[w], wsc, wsp)
				if err != nil {
					abortOnce.Do(func() { workerErr = err; close(abort) })
					continue // keep draining so the producers never block
				}
				if ok {
					wout[w] = append(wout[w], refined{ord: c.block[n:], w: int32(w), k: int32(len(wsc.stage.ids) - 1)})
				}
			}
			wsp.End()
		}(w)
	}
	defer func() {
		for _, wsc := range wscs {
			putScratch(wsc)
		}
	}()
	// seenMu guards the dedup map and its key buffer, so a repeated emission
	// builds its key and compares paths without allocating.
	var seenMu sync.Mutex
	seen := map[string][]int32{}
	var key []byte
	d.sem = make(chan struct{}, workers-1)
	d.emit = func(sc *scratch, docID uint32, _ *QueryStats, bsp *obs.Span) error {
		seenMu.Lock()
		key = appendKey(key[:0], docID, sc.S)
		if block, ok := seen[string(key)]; ok {
			// Already scheduled for refinement; only remember the earliest
			// emission position for the reduction.
			if compareInt32s(sc.path, block[n:]) < 0 {
				copy(block[n:], sc.path)
			}
			seenMu.Unlock()
			return nil
		}
		block := append(append(make([]int32, 0, n+len(sc.path)), sc.S...), sc.path...)
		seen[string(key)] = block
		seenMu.Unlock()
		t0 := bsp.Start()
		select {
		case ch <- candidate{docID: docID, block: block}:
			bsp.Stage(obs.StageEmitWait, t0)
			return nil
		case <-abort:
			bsp.Stage(obs.StageEmitWait, t0)
			return errRefineAborted
		}
	}
	perr := d.run(stats, sc)
	close(ch)
	wg.Wait()
	d.sp.End()
	rsp.End()
	for w := range wstats {
		stats.merge(&wstats[w])
	}
	if workerErr != nil {
		return nil, workerErr
	}
	if perr != nil {
		return nil, perr
	}
	// Reduce in depth-first emission order — every refined match sorts at its
	// candidate's earliest descent path — so the surviving witness for each
	// embedding is the one the inline first-wins dedup keeps.
	t0 := sp.Start()
	var all []refined
	for _, o := range wout {
		all = append(all, o...)
	}
	slices.SortFunc(all, func(a, b refined) int { return compareInt32s(a.ord, b.ord) })
	for _, r := range all {
		sc.stage.pushCopy(&wscs[r.w].stage, int(r.k))
		sc.stage.keepLast()
	}
	out := sc.stage.pack()
	sp.Stage(obs.StageReduce, t0)
	return out, nil
}

// appendKey renders a document id plus a position (or image) list as
// map-key bytes: the candidate, embedding and image-set dedup keys.
func appendKey(b []byte, docID uint32, vals []int32) []byte {
	b = binary.LittleEndian.AppendUint32(b, docID)
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// recordCache memoizes document fetches within one pipelined query, so a
// document many candidates refine against crosses the docstore (and, cold,
// the disk) exactly once: the first caller for a docid fetches under that
// entry's lock and every concurrent caller for the same docid waits on it,
// which makes RecordFetches/RecordCacheHits independent of scheduling.
// Outcomes are cached — including the quarantined "skip" outcome, which
// re-marks Degraded on every hitting worker's stats — but transient errors
// are not, so the next caller retries.
//
// A cached record outlives the worker that fetched it and is read by the
// others, so it is never decoded into a worker's scratch: the cache asks the
// store for a fresh record and keeps that, and fills a resident image's view
// into the entry itself.
type recordCache struct {
	ix   *Index
	asOf uint64
	mu   sync.Mutex
	m    map[uint32]*cachedShape
}

type cachedShape struct {
	mu   sync.Mutex // held across the fetch; orders waiters behind it
	done bool
	doc  docShape // nil: skip the document (quarantined or not visible)
	view docstore.View
}

func newRecordCache(ix *Index, asOf uint64) *recordCache {
	return &recordCache{ix: ix, asOf: asOf, m: map[uint32]*cachedShape{}}
}

func (c *recordCache) get(docID uint32, stats *QueryStats, _ *docstore.Record, _ *docstore.View) (docShape, error) {
	c.mu.Lock()
	e := c.m[docID]
	if e == nil {
		e = &cachedShape{}
		c.m[docID] = e
	}
	c.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		stats.RecordCacheHits++
		if e.doc == nil {
			stats.Degraded = true
		}
		return e.doc, nil
	}
	doc, err := c.ix.fetchAsOf(docID, c.asOf, stats, nil, &e.view)
	if err != nil {
		return nil, err
	}
	e.doc, e.done = doc, true
	return doc, nil
}
