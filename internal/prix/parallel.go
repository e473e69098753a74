package prix

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/docstore"
	"repro/internal/obs"
	"repro/internal/twig"
	"repro/internal/vtrie"
)

// This file is the parallel query-execution pipeline. Three independent
// axes of the read-only query path are decomposed across workers:
//
//   - within one (arranged) query, the Algorithm 1 trie descent emits
//     (document, subsequence) candidates into a bounded channel consumed
//     by a pool running Algorithm 2 refinement (matchPipelined);
//   - an unordered query's branch arrangements fan out across workers
//     instead of looping (matchArrangements);
//   - single-node queries shard the document scan (single.go).
//
// Determinism contract: every candidate carries its emission order from
// the (serial, deterministic) descent, reductions happen in that order,
// and arrangement results are deduplicated in arrangement order — so any
// Parallelism setting returns byte-identical matches and identical
// counter stats to the serial path. Workers write only their own
// QueryStats slot; the slots are merged after the pool drains.

// matchArrangements runs every arranged query and applies the unordered
// image-set deduplication in arrangement order (identical to the legacy
// serial loop). With one arrangement the full worker budget goes to the
// refinement pipeline; with several, arrangements are the coarser (and
// cheaper) unit, so they get the workers and split the remainder.
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
// → Algorithm 2 boundary. S is copied per candidate: the descent mutates
// its shared buffer in place, which only the inline path may alias.
type candidate struct {
	entry *candEntry // shared dedup entry carrying the ordering key
	docID uint32
	S     []int32
}

// refined is one surviving match — number k on worker w's stage — tagged
// with its candidate's dedup entry.
type refined struct {
	entry *candEntry
	w, k  int32
}

// candEntry is the per-(document, S) dedup slot. bestOrd is the minimum
// descent path over every emission of the tuple — exactly the position at
// which the serial first-wins dedup would have refined it — so the
// reduction recovers the serial order no matter which concurrent emission
// actually reached the refinement pool first. Writes happen under the
// pipeline's dedup mutex; the reduction reads after every producer and
// worker has joined.
type candEntry struct {
	bestOrd string
}

// appendPath renders a descent path (one hit index per trie level plus the
// docid-scan ordinal) as fixed-width big-endian bytes, so lexicographic
// comparison equals the serial depth-first emission order.
func appendPath(b []byte, path []int32) []byte {
	for _, v := range path {
		b = binary.BigEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// descent fans the Algorithm 1 trie walk out across a bounded worker pool.
// The per-hit recursions at every level are independent subtrees of the
// virtual trie, and — as the forest pools hold nearly all of a cold
// query's pages — they are where the I/O waits live; walking them
// concurrently is what overlaps those waits. Each spawned branch gets its
// own S buffer, path prefix and QueryStats slot; emissions are tagged with
// the branch path, so the reduction is independent of scheduling.
type descent struct {
	ix   *Index
	p    *plan
	opts MatchOptions
	par  int           // readahead width for range scans
	sem  chan struct{} // free extra descent workers
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error       // one per spawned branch, in spawn order
	kids []*QueryStats // spawned branches' stats slots
	sp   *obs.Span     // the filter span; spawned branches hang off it
	emit func(path []int32, docID uint32, S []int32, stats *QueryStats, sp *obs.Span) error
}

// run walks every subtree — the root walk on the caller's scratch sc — and
// blocks until the spawned branches join, merging their stats into stats. The
// returned error prefers a real failure over the cancellations (and
// refinement aborts) it caused.
func (d *descent) run(stats *QueryStats, sc *scratch) error {
	w0 := d.sp.Start()
	root := d.step(stats, d.sp, sc, 0, 0, vtrie.MaxRange, make([]int32, 0, len(d.p.syms)+1))
	d.closeBranch(d.sp, w0) // before wg.Wait: the join is pipeline idle, not walking
	d.wg.Wait()
	for _, ks := range d.kids {
		stats.merge(ks)
	}
	err := root
	for _, e := range d.errs {
		if e == nil {
			continue
		}
		if err == nil || isSecondaryErr(err) && !isSecondaryErr(e) {
			err = e
		}
	}
	return err
}

// closeBranch credits one branch walk's untimed remainder to the descent
// stage: its wall time minus the prefetch and channel-send windows it
// accumulated (spawned sub-branches run on their own goroutines and their
// own spans, so they are not part of this branch's wall time).
func (d *descent) closeBranch(sp *obs.Span, startNS int64) {
	if sp == nil {
		return
	}
	walk := sp.Now() - startNS - sp.StageNS(obs.StagePrefetch) - sp.StageNS(obs.StageEmitWait)
	sp.AddStage(obs.StageDescent, time.Duration(walk), 1)
	if sp != d.sp {
		sp.End() // the filter span itself is closed by matchPipelined
	}
}

// isSecondaryErr reports errors that are consequences of another failure
// (cancellation fan-out, refinement abort) rather than causes.
func isSecondaryErr(err error) bool {
	return errors.Is(err, errRefineAborted) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// step mirrors Index.findSubsequence exactly — the same scanLevel range
// query per level, MaxGap pruning, scanDocIDs at the last level — but hands
// whole hit subtrees to free workers instead of always recursing inline.
// Spawning only moves work between goroutines; the path tags keep the
// reduction order fixed.
func (d *descent) step(stats *QueryStats, sp *obs.Span, sc *scratch, i int, ql, qr uint64, path []int32) error {
	if err := d.opts.context().Err(); err != nil {
		return fmt.Errorf("prix: match canceled: %w", err)
	}
	hits, err := scanLevel(d.p, i, ql, qr, stats, sc, d.par, sp)
	if err != nil {
		return err
	}
	S := sc.S
	last := i == len(d.p.syms)-1
	for hi, h := range hits {
		S[i] = int32(h.level)
		if i > 0 && !d.opts.DisableMaxGap && d.p.prune[i].pruned(int64(S[i]-S[i-1])) {
			stats.TriePathsPruned++
			continue
		}
		if last {
			ord := int32(0)
			err = d.ix.scanDocIDs(d.p, &d.opts, h.left, h.right, stats, d.par, sp, func(id uint32) error {
				e := d.emit(append(path, int32(hi), ord), id, S, stats, sp)
				ord++
				return e
			})
		} else if !d.spawn(i, hi, h, S, path) {
			err = d.step(stats, sp, sc, i+1, h.left, h.right, append(path, int32(hi)))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// spawn hands hit hi's whole subtree below level i to a free worker, if
// there is one, with its own scratch (seeded with the S prefix) and a copy
// of the path — the inline loop keeps mutating the originals.
func (d *descent) spawn(i, hi int, h hit, S, path []int32) bool {
	select {
	case d.sem <- struct{}{}:
	default:
		return false
	}
	bsc := getScratch()
	bsc.levels(len(S))
	copy(bsc.S, S[:i+1])
	branchPath := append(append(make([]int32, 0, cap(path)), path...), int32(hi))
	ks := &QueryStats{}
	d.mu.Lock()
	d.kids = append(d.kids, ks)
	slot := len(d.errs)
	d.errs = append(d.errs, nil)
	d.mu.Unlock()
	// Branch spans attach flat under the filter span, keyed by the descent
	// path — lexicographic key order is exactly the serial emission order,
	// so traces read deterministically no matter which branches happened to
	// find free workers.
	var bsp *obs.Span
	if d.sp != nil {
		bsp = d.sp.ChildKeyed("branch", fmt.Sprintf("%x", appendPath(nil, branchPath)))
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() { <-d.sem }()
		defer putScratch(bsc)
		b0 := bsp.Start()
		err := d.step(ks, bsp, bsc, i+1, h.left, h.right, branchPath)
		d.closeBranch(bsp, b0)
		if err != nil {
			d.mu.Lock()
			d.errs[slot] = err
			d.mu.Unlock()
		}
	}()
	return true
}

// matchPipelined is matchOrdered with Algorithm 1 and Algorithm 2
// decoupled: the trie descent — itself fanned out across workers, one hit
// subtree at a time (see descent) — streams candidates into a bounded
// channel; `workers` goroutines refine them concurrently, each with its
// own QueryStats slot and its own scratch (N and the stage its surviving
// matches wait on). Identical (document, S)
// candidates are deduplicated at emission so the same record is fetched once
// (they can only produce the identical match the embedding dedup would drop
// anyway); the Candidates counter still counts every emission, like the
// serial path. sc is the caller's scratch: it holds p, runs the root walk and
// stages the reduced result.
func (ix *Index) matchPipelined(p *plan, opts MatchOptions, stats *QueryStats,
	workers int, fetch recordSource, sc *scratch, sp *obs.Span) ([]Match, error) {
	ch := make(chan candidate, 2*workers)
	abort := make(chan struct{})
	var abortOnce sync.Once
	var workerErr error // written once under abortOnce, read after wg.Wait
	wstats := make([]QueryStats, workers)
	wout := make([][]refined, workers)
	wscs := make([]*scratch, workers)
	if fetch == nil {
		fetch = newRecordCache(ix, opts.AsOf).get
	}
	// Worker spans are created up front on this goroutine, keyed by the
	// worker ordinal: their creation order (and so the trace) never
	// depends on pool scheduling. Each worker owns its span exclusively.
	fsp := sp.Child("filter")
	rsp := sp.Child("refine")
	wspans := make([]*obs.Span, workers)
	if rsp != nil {
		for w := range wspans {
			wspans[w] = rsp.ChildKeyed("worker", fmt.Sprintf("%03d", w))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wsc := getScratch()
		wsc.levels(len(p.syms))
		wsc.stage.reset(len(p.syms), p.m)
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
				ok, err := ix.refine(p, c.docID, c.S, &wstats[w], fetch, wsc, wsp)
				if err != nil {
					abortOnce.Do(func() { workerErr = err; close(abort) })
					continue // keep draining so the producers never block
				}
				if ok {
					wout[w] = append(wout[w], refined{entry: c.entry, w: int32(w), k: int32(len(wsc.stage.ids) - 1)})
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
	// seenMu guards the dedup map and the two key buffers, so a repeated
	// emission builds its keys and compares them without allocating.
	var seenMu sync.Mutex
	seen := map[string]*candEntry{}
	var key, ord []byte
	d := &descent{
		ix: ix, p: p, opts: opts, par: workers,
		sem: make(chan struct{}, workers-1),
		sp:  fsp,
		emit: func(path []int32, docID uint32, S []int32, wstats *QueryStats, bsp *obs.Span) error {
			wstats.Candidates++
			seenMu.Lock()
			key = appendKey(key[:0], docID, S)
			ord = appendPath(ord[:0], path)
			if e, ok := seen[string(key)]; ok {
				// Already scheduled for refinement; only remember the
				// earliest emission position for the reduction.
				if string(ord) < e.bestOrd {
					e.bestOrd = string(ord)
				}
				seenMu.Unlock()
				return nil
			}
			e := &candEntry{bestOrd: string(ord)}
			seen[string(key)] = e
			seenMu.Unlock()
			c := candidate{entry: e, docID: docID, S: append([]int32(nil), S...)}
			t0 := bsp.Start()
			select {
			case ch <- c:
				bsp.Stage(obs.StageEmitWait, t0)
				return nil
			case <-abort:
				bsp.Stage(obs.StageEmitWait, t0)
				return errRefineAborted
			}
		},
	}
	perr := d.run(stats, sc)
	close(ch)
	wg.Wait()
	fsp.End()
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
	// Reduce in serial emission order — every refined match sorts at its
	// candidate's earliest descent path — so the surviving witness for
	// each embedding is the same one the serial first-wins dedup keeps.
	t0 := sp.Start()
	var all []refined
	for _, o := range wout {
		all = append(all, o...)
	}
	slices.SortFunc(all, func(a, b refined) int { return strings.Compare(a.entry.bestOrd, b.entry.bestOrd) })
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
// store for a fresh record and keeps that.
type recordCache struct {
	fetch recordSource
	mu    sync.Mutex
	m     map[uint32]*cachedShape
}

type cachedShape struct {
	mu   sync.Mutex // held across the fetch; orders waiters behind it
	done bool
	doc  docShape // nil: skip the document (quarantined or not visible)
}

func newRecordCache(ix *Index, asOf uint64) *recordCache {
	return &recordCache{fetch: ix.shapeFetcher(asOf), m: map[uint32]*cachedShape{}}
}

func (c *recordCache) get(docID uint32, stats *QueryStats, _ *docstore.Record) (docShape, error) {
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
	doc, err := c.fetch(docID, stats, nil)
	if err != nil {
		return nil, err
	}
	e.doc, e.done = doc, true
	return doc, nil
}
