package prix

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/hot"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/prufer"
	"repro/internal/twig"
	"repro/internal/vtrie"
)

// Match is one twig occurrence (an embedding of the query into a document).
type Match struct {
	// DocID identifies the document.
	DocID uint32
	// Positions is S — the 1-based positions in LPS(D) where LPS(Q)
	// matched (one witness; wildcard queries can have several witnesses
	// per embedding, all reduced to the same Images). Nil for a match the
	// parts of a split twig were joined into, which has no single witness.
	Positions []int32
	// Images is the canonical embedding: Images[i] is the postorder
	// number (in the sequenced, possibly extended tree) of the image of
	// query node i+1. Matches are deduplicated by (DocID, Images).
	Images []int32
	// Root is the postorder number of the query root's image.
	Root int32
}

// QueryStats reports the work one Match call performed.
type QueryStats struct {
	// RangeQueries counts B+-tree range queries issued by Algorithm 1.
	RangeQueries int
	// Reseeks counts range queries whose level cursor went back to the top
	// — the B+-tree's root, or the start of the level's resident run —
	// because the window started before the leaf the cursor stood on or
	// past the leaf after it; the rest moved on from where the level's
	// last range query stopped. A cursor's first range query is not one. It
	// depends on which subtrees a walk at Parallelism above 1 spawns, each
	// on cursors of its own.
	Reseeks int
	// TriePathsPruned counts candidates discarded by the MaxGap metric.
	TriePathsPruned int
	// Candidates counts (document, subsequence) pairs entering refinement.
	Candidates int
	// Matches counts surviving twig occurrences.
	Matches int
	// PagesRead is the physical page reads during the query (cold start).
	PagesRead uint64
	// RecordFetches counts document records read from the store: superseded
	// images and the whole-record paths. Refining or scanning a latest image
	// reads its resident shape and LPS and no record.
	RecordFetches int
	// RecordCacheHits is always 0: refinement keeps no record cache, so
	// every record read is a RecordFetches. It stays for the reports that
	// print it.
	RecordCacheHits int
	// HotPostingHits counts Algorithm 1 range scans (trie and docid) served
	// from the hot tier instead of a B+-tree. Each such scan is
	// still counted in RangeQueries, so hot and cold runs report identical
	// RangeQueries.
	HotPostingHits int
	// HotRecordHits is always 0: refinement reads the store's resident
	// shapes and LPS, and the tier holds no per-document structure. It stays
	// for the reports that print it.
	HotRecordHits int
	// Elapsed is wall-clock query time.
	Elapsed time.Duration
	// Degraded reports that at least one document was skipped because its
	// record is quarantined (or proved corrupt during this query): the
	// result is complete over the healthy documents only. The quarantined
	// docids are available from Index.Quarantined.
	Degraded bool
	// DegradedShards lists the shard IDs that contributed only partial (or
	// no) results, when the query ran through a scatter-gather coordinator
	// (internal/shard). A single index never sets it; the engine-internal
	// stat merges leave it alone.
	DegradedShards []int
}

// ErrNeedsExtendedIndex marks queries an RPIndex cannot filter: a
// descendant or star edge directly above a twig leaf (the leaf's parent
// label cannot appear at the required sequence position in regular
// sequences). The paper answers them with an EPIndex (§5.6), and so must
// the caller.
var ErrNeedsExtendedIndex = errors.New("query needs an EPIndex")

// wildcardLeaf returns a leaf of n's subtree whose edge is not exact, or nil.
func wildcardLeaf(n *twig.Node) *twig.Node {
	for _, c := range n.Children {
		if len(c.Children) == 0 && !c.Edge.Exact() {
			return c
		}
		if l := wildcardLeaf(c); l != nil {
			return l
		}
	}
	return nil
}

// MatchOptions tunes query processing.
type MatchOptions struct {
	// DisableMaxGap turns off the Theorem 4 pruning (ablation).
	DisableMaxGap bool
	// Unordered finds unordered twig matches: siblings may match in any
	// order. In place of §5.7's one match per branch arrangement, the twig
	// is split into root-to-leaf parts whose answers are joined (split.go);
	// matches with the same document and image set are one match.
	Unordered bool
	// WarmCache runs the query against whatever the buffer pools already
	// hold instead of dropping clean cached pages first. The default
	// (cold) start reproduces the paper's per-query "Disk IO" accounting.
	// Either setting is safe with concurrent Match calls: PagesRead is a
	// before/after delta of monotonic counters, so it is exact when the
	// query runs alone and a best-effort delta when queries overlap (a
	// concurrent cold start can evict pages this query then re-reads).
	WarmCache bool
	// AsOf pins the query to a historical version of a mutated index: only
	// documents visible at that version match, resolved against the record
	// image they had then (MVCC time travel; see version.go). 0 means
	// latest. Indexes without version state ignore it.
	AsOf uint64
	// Parallelism caps the workers executing the query. There is one
	// Algorithm 1 walk (descent.step); Parallelism only schedules it: at 1
	// the walk runs on the calling goroutine, above 1 free workers take whole
	// trie subtrees and single-node document scans shard the docid space. At
	// every setting each walker runs Algorithm 2 on the candidates it finds,
	// where it finds them. 0 means GOMAXPROCS; values above maxWorkersPerProc × GOMAXPROCS
	// are clamped to that. Results are identical at every setting: survivors
	// carry their descent path, so deduplication and the final sort are
	// deterministic regardless of worker interleaving.
	Parallelism int
	// Ctx, when non-nil, bounds the query: cancellation or deadline expiry
	// is observed between B+-tree range queries (and periodically during
	// single-tag document scans), aborting the match with the context's
	// error. Nil means no cancellation (context.Background).
	Ctx context.Context
	// Trace, when non-nil, collects a hierarchical span tree for this
	// query: per-stage timings (descent, prefetch, each refinement phase,
	// reduction) and per-span page-read/cache-hit
	// deltas. Nil (the default) keeps the hot path free of tracing work —
	// no time syscalls, no allocations. A Trace must not be shared by
	// concurrent Match calls except through one caller's coordinated
	// fan-out (the shard coordinator's); it is finished and read by the
	// caller.
	Trace *obs.Trace
	// TraceParent, when set together with Trace, hangs this Match's span
	// under the given span instead of the trace root. The scatter-gather
	// coordinator (internal/shard) uses it to group every shard's
	// execution under its own shard/NNN child, so a traced fan-out reads
	// as a tree rather than a flat list of identically keyed matches.
	TraceParent *obs.Span
	// Into, when non-nil, is memory the caller lends the answer: Match packs
	// the matches and their positions and images into it and keeps the
	// query's QueryStats there, so the []Match and *QueryStats it returns
	// alias Into and are valid until Into is reused or released. Like Trace
	// it is the caller's memory, not a behaviour setting: a path may ignore
	// it and return memory of its own (single-node queries do), and a caller
	// that fans one query out (the shard coordinator) must not pass it on,
	// since one MatchBuf holds one answer. Nil (the default) returns memory
	// of the answer's own, exactly sized, which is what a caller that keeps
	// the answer (a result cache) wants.
	Into *MatchBuf
}

// MatchBuf is reusable memory for one query's answer: the []Match, the
// int32 block their positions and images share, and the QueryStats. Lend it
// to Match through MatchOptions.Into; what Match returns through it is
// overwritten by the next Match into the same buffer.
type MatchBuf struct {
	matches []Match
	ints    []int32
	stats   QueryStats
}

// matchBufPool holds released buffers; Release keeps none above scratchKeep.
var matchBufPool = sync.Pool{New: func() any { return new(MatchBuf) }}

// matchBytes is the size of one Match on a 64-bit platform.
const matchBytes = 64

// NewMatchBuf returns a buffer from a pool that Release refills. One never
// released is collected like any other value.
func NewMatchBuf() *MatchBuf { return matchBufPool.Get().(*MatchBuf) }

// Release returns b to NewMatchBuf's pool, unless it grew above scratchKeep:
// one huge answer must not pin its high-water mark in the pool. Call it once
// nothing reads the answer packed into b, and only once. Nil-safe.
func (b *MatchBuf) Release() {
	if b == nil || cap(b.ints)*4+cap(b.matches)*matchBytes > scratchKeep {
		return
	}
	matchBufPool.Put(b) // its matches point into its own ints, nowhere else
}

// context resolves the options' context, defaulting to Background.
func (o *MatchOptions) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// maxWorkersPerProc bounds Parallelism per P. Workers beyond GOMAXPROCS still
// pay off on a cold query, where they are parked on page reads, but every
// entry point (request field, CLI flag, option) sizes goroutines, channels and
// pooled scratches from this number, so it cannot be left to the caller.
const maxWorkersPerProc = 16

// workers resolves Parallelism: 0 means GOMAXPROCS, anything below 1 is 1,
// anything above maxWorkersPerProc × GOMAXPROCS is that.
func (o *MatchOptions) workers() int {
	procs := runtime.GOMAXPROCS(0)
	if o.Parallelism == 0 {
		return procs
	}
	return min(max(o.Parallelism, 1), maxWorkersPerProc*procs)
}

// merge folds a worker's accounting into s. Counters add; Degraded is
// sticky, so a quarantine observed on any worker is never lost. Matches, PagesRead and Elapsed are owned by Match itself and set
// once at the end.
func (s *QueryStats) merge(o *QueryStats) {
	s.RangeQueries += o.RangeQueries
	s.Reseeks += o.Reseeks
	s.TriePathsPruned += o.TriePathsPruned
	s.Candidates += o.Candidates
	s.RecordFetches += o.RecordFetches
	s.HotPostingHits += o.HotPostingHits
	s.Degraded = s.Degraded || o.Degraded
}

// Match finds all ordered (or unordered, per opts) occurrences of the query,
// splitting a twig the descent alone could miss occurrences of (split.go).
// Results are sorted by compareMatches: (DocID, Positions, Images, Root).
func (ix *Index) Match(q *twig.Query, opts MatchOptions) ([]Match, *QueryStats, error) {
	// Queries run under the repair read-lock: a concurrent repair or forest
	// rebuild (write-locked) can rewrite structures wholesale, and a query
	// must see either the pre- or post-repair image, never a mix.
	ix.repairMu.RLock()
	defer ix.repairMu.RUnlock()
	start := time.Now()
	if err := opts.context().Err(); err != nil {
		return nil, nil, fmt.Errorf("prix: match %q: %w", q, err)
	}
	if !ix.opts.Extended {
		// Regular-Prüfer matching verifies a twig leaf's edge implicitly
		// as a parent-child edge; descendant edges above leaves need the
		// EPIndex (§5.6 makes every node internal).
		if l := wildcardLeaf(q.Root); l != nil {
			return nil, nil, fmt.Errorf("prix: query %q has a wildcard edge above leaf %q (%w)", q, l.Label, ErrNeedsExtendedIndex)
		}
	}
	// Per-query I/O accounting is a before/after delta of the monotonic
	// physical-read counters. A cold start evicts clean cached pages first
	// but never resets the counters: the old in-query ResetIOStats zeroed
	// them under repairMu.RLock, so two concurrent queries reset each
	// other's baseline and reported garbage PagesRead.
	sp := ix.matchSpan(opts.Trace, opts.TraceParent, q)
	if !opts.WarmCache {
		t0 := sp.Start()
		ix.DropCaches()
		sp.Stage(obs.StageColdStart, t0)
	}
	pagesBefore := ix.PagesRead()
	var stats *QueryStats
	if opts.Into != nil {
		stats = &opts.Into.stats
		*stats = QueryStats{}
	} else {
		stats = new(QueryStats)
	}
	var out []Match
	var err error
	if q.Size() == 1 {
		out, err = ix.matchSingleNode(q, opts, stats, sp) // sorted as scanned
	} else {
		out, err = ix.matchSplit(q, opts, stats, opts.workers(), sp)
	}
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	if q.Size() > 1 {
		t0 := sp.Start()
		slices.SortFunc(out, compareMatches)
		if opts.Unordered && mayRepeat(q.Root) {
			out = dropSameImageSets(out)
		}
		sp.Stage(obs.StageReduce, t0)
	}
	stats.Matches = len(out)
	stats.PagesRead = ix.PagesRead() - pagesBefore
	stats.Elapsed = time.Since(start)
	finishMatchSpan(sp, stats)
	return out, stats, nil
}

// compareMatches is the engine's canonical result order: (DocID, Positions,
// Images, Root), the comparator of Match's final sort. It is a TOTAL order
// over distinct matches — Positions alone does not suffice (single-node
// queries carry no positions, and dedup keys on Images) — which is what lets
// the scatter-gather coordinator merge per-shard result lists in this same
// order (MergeMatches) and produce output byte-identical to a single
// index's: docids are globally unique, so the cross-shard merge meets no
// ties.
func compareMatches(a, b Match) int {
	if c := cmp.Compare(a.DocID, b.DocID); c != 0 {
		return c
	}
	if c := slices.Compare(a.Positions, b.Positions); c != 0 {
		return c
	}
	if c := slices.Compare(a.Images, b.Images); c != 0 {
		return c
	}
	return cmp.Compare(a.Root, b.Root)
}

// MergeMatches merges runs, each in compareMatches order, into one answer in that
// order, copying every match with its positions and images into dst; a nil
// dst merges them into memory of their own, one exactly sized block and one
// exactly sized []Match, as an unlent Match packs its answer. The answer
// shares no memory with the runs, which may be reused once it returns; nil
// Positions or Images stay nil. The scatter-gather coordinator merges its
// shards' answers with it: each shard's run is in order, and shards hold
// disjoint docids.
func MergeMatches(dst *MatchBuf, runs ...[]Match) []Match {
	n, w := 0, 0
	for _, run := range runs {
		n += len(run)
		for k := range run {
			w += len(run[k].Positions) + len(run[k].Images)
		}
	}
	if n == 0 {
		return nil
	}
	var own MatchBuf
	if dst == nil {
		dst = &own
	}
	dst.ints = sized(dst.ints, w)
	dst.matches = sized(dst.matches, n)
	// next[r] is run r's first unmerged match. Runs are few (one a shard),
	// so the least head is found by a scan rather than a heap.
	var inline [16]int
	next := inline[:]
	if len(runs) > len(inline) {
		next = make([]int, len(runs))
	}
	ints := dst.ints
	for k := range dst.matches {
		best := -1
		for r, run := range runs {
			if next[r] < len(run) && (best < 0 || compareMatches(run[next[r]], runs[best][next[best]]) < 0) {
				best = r
			}
		}
		m := runs[best][next[best]]
		next[best]++
		m.Positions, ints = carve(m.Positions, ints)
		m.Images, ints = carve(m.Images, ints)
		dst.matches[k] = m
	}
	return dst.matches
}

// carve copies src to the front of block, returning the copy (capped at its
// length, nil for a nil src) and the rest of block.
func carve(src, block []int32) (copied, rest []int32) {
	if src == nil {
		return nil, block
	}
	n := copy(block, src)
	return block[:n:n], block[n:]
}

// plan is a query compiled against this index's dictionary. It lives in the
// scratch of the goroutine that runs the query (compile refills its slices in
// place) and is read-only from then on, so the branches the walk spawns may
// share it until matchOrdered returns.
type plan struct {
	// syms[i] is the interned symbol of LPS(Q)[i].
	syms []vtrie.Symbol
	// npsQ[i] = NPS(Q)[i] as int32.
	npsQ []int32
	// edges[p-1] is the constraint for query node p's edge to its parent.
	edges []twig.Edge
	// lastOcc[i] is true when position i is the last occurrence of
	// npsQ[i] within NPS(Q).
	lastOcc []bool
	// prune[i] describes the Theorem 4 rule for the pair (i-1, i).
	prune []pruneRule
	// levels[i] is where level i's range queries go and docids where the
	// terminal docid scans go: the index is read-locked for the whole
	// Match, so the trees stay valid. Each walker's level cursors resolve
	// them against the hot tier on first use.
	levels []levelSource
	docids *btree.Tree
	// leaves lists query leaves for the refinement-by-leaf phase.
	leaves []docstore.Leaf
	// dummy[p-1] marks extended-pattern dummy nodes (excluded from the
	// canonical embedding: their matched positions are proxies).
	dummy []bool
	// anchored queries must map the root onto the document root.
	anchored bool
	// rootEdge constrains the query root's depth (leading stars).
	rootEdge twig.Edge
	m        int // number of query nodes
}

type pruneRule struct {
	kind   byte  // 0 none, 1 child rule, 2 ancestor rule
	maxGap int64 // MaxGap of the symbol the rule bounds
}

// pruned applies the Theorem 4 rule to the data gap between two
// consecutive matched positions.
func (r pruneRule) pruned(gap int64) bool {
	return (r.kind == 1 && gap > r.maxGap+1) || (r.kind == 2 && gap >= r.maxGap)
}

// levelSource is one query level's posting source: the symbol's key-prefix
// range of the postings tree (tree is nil when the symbol heads no sequence
// position, known from the posted set without a probe).
type levelSource struct {
	tree *btree.Tree
	sym  vtrie.Symbol
}

// hit is one posting a level's range query returned.
type hit struct {
	left, right uint64
	level       uint32
}

// sized returns s with length n and every element zero, reusing its backing
// array when that is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// compile prepares the query into pat and against the index, binding
// symbols, level sources and prune rules into p's own slices; pat and p are
// the scratch's, so neither allocates once the scratch has seen a query as
// large. ok false with no error means the query provably has no matches (a
// label is absent from the dictionary).
func (ix *Index) compile(q *twig.Query, pat *twig.Pattern, p *plan) (ok bool, err error) {
	if err := q.PrepareInto(pat, ix.opts.Extended); err != nil {
		return false, err
	}
	dict := ix.store.Dict()
	levels := pat.Seq.Len()
	p.anchored, p.rootEdge, p.m, p.edges = pat.Anchored, q.RootEdge, pat.Doc.Size(), pat.Edges
	p.dummy = sized(p.dummy, p.m)
	p.syms, p.npsQ = sized(p.syms, levels), sized(p.npsQ, levels)
	p.levels, p.lastOcc, p.prune = sized(p.levels, levels), sized(p.lastOcc, levels), sized(p.prune, levels)
	p.leaves = p.leaves[:0]
	for _, n := range pat.Doc.Nodes {
		if prufer.IsDummy(n) {
			p.dummy[n.Post-1] = true
		}
	}
	for i := 0; i < levels; i++ {
		parent := pat.Doc.Node(pat.Seq.Numbers[i])
		sym, ok := LookupSymbol(dict, parent.Label, parent.IsValue)
		if !ok {
			return false, nil // label absent from the collection: no matches
		}
		p.syms[i] = sym
		p.npsQ[i] = int32(pat.Seq.Numbers[i])
		if !ix.posted.has(sym) {
			continue
		}
		p.levels[i] = levelSource{tree: ix.postings, sym: sym}
	}
	p.docids = ix.docid
	for i := range p.npsQ {
		p.lastOcc[i] = isLastOccurrence(p.npsQ, i)
	}
	for i := 1; i < len(p.npsQ); i++ {
		a := int(p.npsQ[i-1]) // query node whose label is LPS(Q)[i-1]
		// The rules require the deleted node at step i-1 (query node i,
		// 1-based: node i-1+1 = i) to be attached to a by an exact edge,
		// so its image is a true child of a's image.
		deleted := i // node deleted at step i-1 (0-based) is node i
		if !p.edges[deleted-1].Exact() {
			continue
		}
		aNode := pat.Doc.Node(a)
		bNode := pat.Doc.Node(int(p.npsQ[i]))
		switch {
		case a == i+1 && p.edges[a-1].Exact():
			// Case 1: the node deleted at step i (node i+1, by Lemma 1)
			// is a itself, so a is a child of b and the pair spans at
			// most MaxGap(A)+1 in the data. a's own edge must be exact:
			// under a wildcard edge the matched position is a proxy
			// deletion that can trail arbitrarily far behind.
			p.prune[i] = pruneRule{kind: 1, maxGap: ix.maxGap[p.syms[i-1]]}
		case a != int(p.npsQ[i]) && aNode.Left < bNode.Left && bNode.Right < aNode.Right:
			// Case 2: a is a proper ancestor of b; the pair stays
			// strictly inside a's image's children span.
			p.prune[i] = pruneRule{kind: 2, maxGap: ix.maxGap[p.syms[i-1]]}
		}
	}
	for _, n := range pat.Doc.Nodes {
		if n.IsLeaf() && n.Parent != nil && !prufer.IsDummy(n) {
			// Dummy leaves of extended patterns carry no label constraint:
			// they are witnesses that the parent's image has a child (and
			// the extended data tree guarantees one). Real leaves keep the
			// §4.4 label check.
			sym, ok := LookupSymbol(dict, n.Label, n.IsValue)
			if !ok {
				return false, nil
			}
			p.leaves = append(p.leaves, docstore.Leaf{Post: int32(n.Post), Sym: sym})
		}
	}
	return true, nil
}

// matchOrdered runs filtering + refinement for one (arranged) query: it
// compiles the plan and runs the Algorithm 1 walk (descent), which refines
// each candidate where it finds it (refineInline). workers > 1 gives the walk
// a semaphore, so free workers take whole subtrees with readahead, and merges
// the walkers' survivors in descent-path order (reduce). workers == 1 never
// spawns: the walk stays on this goroutine and this scratch, and its stage is
// the result.
func (ix *Index) matchOrdered(q *twig.Query, opts MatchOptions, stats *QueryStats,
	workers int, sp *obs.Span) ([]Match, error) {
	sc := getScratch()
	defer putScratch(sc)
	p := &sc.plan
	t0 := sp.Start()
	ok, err := ix.compile(q, &sc.pattern, p)
	sp.Stage(obs.StageCompile, t0)
	if err != nil || !ok {
		return nil, err
	}
	sc.levels(len(p.syms))
	sc.bind(p)
	sc.stage.reset(len(p.syms), p.m)
	fsp := sp.Child("filter")
	rsp := sp.Child("refine")
	d := &sc.walk
	*d = descent{ix: ix, p: p, opts: opts, par: workers, found: &sc.found, sp: fsp, rsp: rsp}
	if workers > 1 {
		d.sem = make(chan struct{}, workers-1)
		sc.found.reset(len(p.syms), p.m)
	}
	err = d.run(stats, sc)
	fsp.End()
	rsp.End()
	if err != nil {
		return nil, err
	}
	t1 := sp.Start()
	if d.sem != nil {
		sc.reduce()
	}
	out := sc.stage.pack(opts.Into)
	sp.Stage(obs.StageReduce, t1)
	return out, nil
}

// scratch is the working memory of one goroutine's share of a query: the
// compiled pattern and plan, one hit buffer per query level (reused by
// sibling recursions at that level), the matched positions S and the descent
// path that led to them (both written in place level by level), refinement's
// N, the record the current candidate is refined against, and the matches
// that survived so far.
// A scratch belongs to exactly one goroutine from getScratch to putScratch —
// the goroutine that called Match or one spawned branch of the descent — and
// nothing that outlives that window may alias it: a query's result is copied
// out of the stage by pack, and a finished branch copies its survivors into
// the caller's found before its scratch is pooled. view is the current
// candidate's resident shape and LPS; it aliases the store, never the
// scratch.
type scratch struct {
	// pattern is the query compiled into its Prüfer sequence, the source of
	// the plan, which aliases its edges.
	pattern twig.Pattern
	plan    plan
	// walk is the query's descent. Like the plan it lives in the scratch of
	// the goroutine that runs the query, and the branches it spawns share it
	// until run has joined them.
	walk descent
	hits [][]hit
	// cursors[i] is level i's place in its postings, docs the terminal
	// docid scans' place in the Docid tree.
	cursors []levelCursor
	docs    levelCursor
	S, N    []int32
	// path[i] is the index, among level i's hits, of the hit the walk is
	// under; path[len(S)] counts the documents the current terminal docid
	// scan has emitted. Paths compare in depth-first emission order.
	path []int32
	// refineNS is the time the branch walking on this scratch has spent
	// refining its candidates, which the branch's descent stage excludes.
	// Traced queries only.
	refineNS int64
	view     docstore.View
	rec      docstore.Record
	stage    matchStage
	// found collects, on the scratch of a query whose walk can spawn, the
	// survivors each finished branch hands over; order is reduce's sort
	// permutation of them.
	found matchStage
	order []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// levels sizes the scratch for a query of the given sequence length.
func (sc *scratch) levels(n int) {
	for len(sc.hits) < n {
		sc.hits = append(sc.hits, nil)
	}
	sc.cursors = sc.cursors[:min(n, cap(sc.cursors))]
	for len(sc.cursors) < n {
		sc.cursors = append(sc.cursors, levelCursor{})
	}
	if cap(sc.S) < n {
		sc.S, sc.N, sc.path = make([]int32, n), make([]int32, n), make([]int32, n+1)
	}
	sc.S, sc.N, sc.path = sc.S[:n], sc.N[:n], sc.path[:n+1]
}

// bind points the scratch's cursors at the plan's sources, unplaced.
func (sc *scratch) bind(p *plan) {
	for i, src := range p.levels {
		lo, hi := symRange(src.sym)
		sc.cursors[i].bind(src.tree, hot.KindPostings, lo, hi)
	}
	lo, hi := docidRange()
	sc.docs.bind(p.docids, hot.KindDocIDs, lo, hi)
}

// resolve resolves level i's cursor against the hot tier, or, when an
// earlier level of the same symbol has resolved (LPS repeats a label once a
// child), takes its run.
func (sc *scratch) resolve(ix *Index, i int) {
	c := &sc.cursors[i]
	for j := range i {
		if o := &sc.cursors[j]; o.resolved && o.tree == c.tree && o.lo == c.lo {
			c.run, c.resident, c.resolved = append(c.run[:0], o.run...), o.resident, true
			return
		}
	}
	c.resolve(ix)
}

// scratchKeep bounds what a pooled scratch retains per buffer: one query
// over a huge document or with a huge answer must not pin its high-water
// mark in the pool for the life of the process.
const scratchKeep = 64 << 10

// patternNodeBytes bounds what one pattern node costs across the pattern's
// slabs: its tree node, child pointer, edge, Doc.Nodes entry, and sequence
// label and number.
const patternNodeBytes = 160

// putScratch returns sc to the pool without what it borrowed from the query
// (the pattern's query, the plan's pointers into the index, the cursors'
// trees and views of the hot tier, the walk) and without any pattern,
// record or result buffer above scratchKeep. The cursors keep their page
// buffers, one page each.
func putScratch(sc *scratch) {
	sc.pattern.Query = nil
	if cap(sc.pattern.Edges)*patternNodeBytes > scratchKeep {
		sc.pattern = twig.Pattern{}
	}
	clear(sc.plan.levels)
	sc.plan.docids, sc.plan.edges = nil, nil
	for i := range sc.cursors {
		sc.cursors[i].bind(nil, 0, btree.LeafKey{}, btree.LeafKey{})
	}
	sc.docs.bind(nil, 0, btree.LeafKey{}, btree.LeafKey{})
	sc.walk = descent{}
	sc.view = docstore.View{}
	if (cap(sc.rec.NPS)+cap(sc.rec.LPS)+2*cap(sc.rec.Leaves))*4 > scratchKeep {
		sc.rec = docstore.Record{}
	}
	sc.stage.release()
	sc.found.release()
	if cap(sc.order)*4 > scratchKeep {
		sc.order = nil
	}
	scratchPool.Put(sc)
}

// matchStage collects one arranged query's surviving matches until the query
// packs them into its result: per match ls positions then m images at a fixed
// stride in ints, the docid and root image in ids, and seen, the embedding
// dedup set, mapping a hash of (docid, images) to the staged match that has
// it. When the walk can spawn, paths holds each match's descent path (ls+1
// entries a match), which reduce orders them by. Staging costs a query no
// allocation once the buffers have grown, and the result that leaves — one
// exactly sized block, one exactly sized []Match — retains nothing it does
// not need, however long a cache keeps it.
type matchStage struct {
	ls, m int
	ints  []int32
	ids   []stagedID
	paths []int32
	seen  map[uint64]int32
}

type stagedID struct {
	docID uint32
	root  int32
}

// reset empties the stage for a query with ls sequence positions and m nodes.
func (st *matchStage) reset(ls, m int) {
	st.ls, st.m = ls, m
	st.ints, st.ids, st.paths = st.ints[:0], st.ids[:0], st.paths[:0]
	if st.seen == nil {
		st.seen = map[uint64]int32{}
	}
	clear(st.seen)
}

// release drops buffers above scratchKeep before the stage is pooled.
func (st *matchStage) release() {
	if cap(st.ints)*4 > scratchKeep {
		st.ints = nil
	}
	if cap(st.ids)*8 > scratchKeep {
		st.ids = nil
	}
	if cap(st.paths)*4 > scratchKeep {
		st.paths = nil
	}
	if len(st.seen)*16 > scratchKeep {
		st.seen = nil
	}
}

// push appends a match with zeroed positions and images and returns the two
// for the caller to fill; they are valid until the next push.
func (st *matchStage) push(docID uint32, root int32) (positions, images []int32) {
	o := len(st.ints)
	st.ints = append(st.ints, make([]int32, st.ls+st.m)...)
	st.ids = append(st.ids, stagedID{docID: docID, root: root})
	return st.ints[o : o+st.ls], st.ints[o+st.ls:]
}

// absorb appends src's staged matches and their paths; seen is not consulted.
func (st *matchStage) absorb(src *matchStage) {
	st.ints = append(st.ints, src.ints...)
	st.ids = append(st.ids, src.ids...)
	st.paths = append(st.paths, src.paths...)
}

// pushCopy appends a copy of src's staged match k.
func (st *matchStage) pushCopy(src *matchStage, k int) {
	m := src.view(src.ints, k)
	positions, images := st.push(m.DocID, m.Root)
	copy(positions, m.Positions)
	copy(images, m.Images)
}

// view returns staged match k with its positions and images taken from
// ints, the stage's own buffer or a copy of it.
func (st *matchStage) view(ints []int32, k int) Match {
	o, w := k*(st.ls+st.m), st.ls+st.m
	return Match{
		DocID:     st.ids[k].docID,
		Positions: ints[o : o+st.ls : o+st.ls],
		Images:    ints[o+st.ls : o+w : o+w],
		Root:      st.ids[k].root,
	}
}

// keepLast is the embedding dedup: it drops the match just pushed if an
// earlier one has the same (docid, images), and reports whether it kept it.
// Hash collisions between different embeddings probe on to the next key.
func (st *matchStage) keepLast() bool {
	last := len(st.ids) - 1
	m := st.view(st.ints, last)
	h := uint64(m.DocID) * 0x9e3779b97f4a7c15
	for _, v := range m.Images {
		h = (h ^ uint64(uint32(v))) * 0x100000001b3
	}
	for ; ; h++ {
		k, ok := st.seen[h]
		if !ok {
			st.seen[h] = int32(last)
			return true
		}
		if e := st.view(st.ints, int(k)); e.DocID == m.DocID && slices.Equal(e.Images, m.Images) {
			st.ints, st.ids = st.ints[:len(st.ints)-st.ls-st.m], st.ids[:last]
			return false
		}
	}
}

// pack copies the staged matches into dst, in staging order; a nil dst packs
// them into memory of their own, one exactly sized block and one exactly
// sized []Match.
func (st *matchStage) pack(dst *MatchBuf) []Match {
	if len(st.ids) == 0 {
		return nil
	}
	var own MatchBuf
	if dst == nil {
		dst = &own
	}
	dst.ints = sized(dst.ints, len(st.ints))
	copy(dst.ints, st.ints)
	dst.matches = sized(dst.matches, len(st.ids))
	for k := range dst.matches {
		dst.matches[k] = st.view(dst.ints, k)
	}
	return dst.matches
}

// scanLevel is Algorithm 1's range query (ql, qr] at query level i, run by
// the level's cursor in sc: it fills sc.hits[i] and returns it. par > 1 (a
// walk that can spawn) warms a paged range first.
func scanLevel(ix *Index, p *plan, i int, ql, qr uint64, stats *QueryStats, sc *scratch, par int, sp *obs.Span) ([]hit, error) {
	src := &p.levels[i]
	hits := sc.hits[i][:0]
	if src.tree == nil {
		return hits, nil
	}
	stats.RangeQueries++
	c := &sc.cursors[i]
	if !c.resolved {
		sc.resolve(ix, i)
	}
	if c.resident {
		stats.HotPostingHits++
	} else if par > 1 {
		lo, hi := postingKey(src.sym, ql), postingKey(src.sym, qr)
		prefetch(src.tree, lo[:], hi[:], false, par, sp)
	}
	err := c.scanPostings(hot.Key{Sym: uint32(src.sym), Left: ql}, hot.Key{Sym: uint32(src.sym), Left: qr}, stats,
		func(_ uint32, left, right uint64, level uint32) bool {
			hits = append(hits, hit{left: left, right: right, level: level})
			return true
		})
	sc.hits[i] = hits // keep the grown buffer for the level's next range query
	return hits, err
}

// scanDocIDs is scanLevel's docid twin: the terminal range query
// [left, right] over the Docid index, run by sc's docid cursor, calling emit
// for every document visible at opts.AsOf whose sequence ends in the range.
func (ix *Index) scanDocIDs(p *plan, opts *MatchOptions, left, right uint64, stats *QueryStats,
	sc *scratch, par int, sp *obs.Span, emit func(docID uint32) error) error {
	stats.RangeQueries++
	c := &sc.docs
	if !c.resolved {
		c.resolve(ix)
	}
	if c.resident {
		stats.HotPostingHits++
	} else if par > 1 {
		prefetch(p.docids, btree.KeyUint64(left), btree.KeyUint64(right), true, par, sp)
	}
	var emitErr error
	err := c.scanDocIDs(hot.Key{Left: left}, hot.Key{Left: right}, stats, func(term uint64, id uint32, tomb uint64) bool {
		// Tombstones ride in the same tree.
		if tomb != 0 || !ix.visibleAt(id, term, opts.AsOf) {
			return true
		}
		emitErr = emit(id)
		return emitErr == nil
	})
	if err != nil {
		return err
	}
	return emitErr
}

// prefetch is the spawning descent's readahead: a cold Scan discovers each
// next leaf only from the previous one, a serial chain of device waits;
// warming the in-range leaves from the internal nodes first turns that
// chain into min(par, leaves) concurrent reads. A walk on one goroutine
// (par <= 1) skips it.
func prefetch(tree *btree.Tree, lo, hi []byte, loIncl bool, par int, sp *obs.Span) {
	if par <= 1 {
		return
	}
	p0 := sp.Start()
	warmed := tree.Prefetch(lo, hi, loIncl, par)
	sp.Stage(obs.StagePrefetch, p0)
	if warmed > 0 {
		sp.AddInt("prefetched_pages", int64(warmed))
	}
}

// descent is Algorithm 1, FindSubsequence with the Theorem 4 prune: a range
// query per query-sequence element, descending through the virtual trie. It is
// the only such walk; what differs between Parallelism settings is who runs
// its subtrees. The per-hit recursions at every level are independent
// subtrees of the trie, and — as the forest pools hold nearly all of a cold
// query's pages — they are where the I/O waits live, so with a semaphore a
// free worker takes a whole subtree, on its own scratch, QueryStats slot and
// span, and on semaphore exhaustion (or without one) the walk recurses
// inline. Every walker refines the candidates it finds on its own scratch
// (refineInline), and every survivor is staged under its descent path, so a
// reduction keyed on it is independent of scheduling.
type descent struct {
	ix   *Index
	p    *plan
	opts MatchOptions
	par  int           // readahead width for range scans; 1 is none
	sem  chan struct{} // free extra descent workers; nil never spawns
	wg   sync.WaitGroup
	mu   sync.Mutex    // guards errs, kids and found
	errs []error       // one per spawned branch, in spawn order
	kids []*QueryStats // spawned branches' stats slots
	// found is the caller's scratch's found stage, where finished branches
	// hand their survivors.
	found *matchStage
	sp    *obs.Span // the filter span; spawned branches hang off it
	rsp   *obs.Span // the refine span the root walk's refine stages land on
}

// refineInline refines the candidate (docID, sc.S) where the walk found it,
// against the document's image read into sc, charging its stages to sp, and
// stages a surviving match on sc's stage — with its descent path when the
// walk can spawn, for reduce.
func (d *descent) refineInline(sc *scratch, docID uint32, stats *QueryStats, sp *obs.Span) error {
	ok, err := d.refine(docID, sc.S, stats, sc, sp)
	if err == nil && ok {
		// Wildcard edges make the matched subsequence a proxy witness:
		// one embedding can be witnessed by several position lists, so
		// matches are deduplicated by their canonical image tuple.
		d0 := sp.Start()
		if sc.stage.keepLast() && d.sem != nil {
			sc.stage.paths = append(sc.stage.paths, sc.path...)
		}
		sp.Stage(obs.StageReduce, d0)
	}
	return err
}

// run walks every subtree — the root walk on the caller's scratch sc — and
// blocks until the spawned branches join, merging their stats into stats. The
// returned error prefers a real failure over the cancellations it caused.
func (d *descent) run(stats *QueryStats, sc *scratch) error {
	err := d.walk(stats, d.sp, d.rsp, sc, 0, 0, vtrie.MaxRange)
	d.wg.Wait()
	for _, ks := range d.kids {
		stats.merge(ks)
	}
	return cause(err, d.errs)
}

// cause returns err, or the first of errs if err is nil, preferring a real
// failure over the cancellations it caused.
func cause(err error, errs []error) error {
	for _, e := range errs {
		if e != nil && (err == nil || isSecondaryErr(err) && !isSecondaryErr(e)) {
			err = e
		}
	}
	return err
}

// isSecondaryErr reports errors that are consequences of another failure
// (cancellation fan-out) rather than causes.
func isSecondaryErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// walk runs one branch — the root, or a subtree a worker took — and credits
// its descent stage on sp: the branch's wall time minus the prefetch and
// refinement windows inside it, the latter charged to rsp (the root's refine
// span, or the branch's own span). Sub-branches it spawns run on their own
// goroutines and spans, so they are in neither, and run joins them after the
// root's walk has been credited: the join is idle time, not walking.
func (d *descent) walk(stats *QueryStats, sp, rsp *obs.Span, sc *scratch, i int, ql, qr uint64) error {
	w0, r0 := sp.Start(), stats.Reseeks
	sc.refineNS = 0
	err := d.step(stats, sp, rsp, sc, i, ql, qr)
	sp.AddStage(obs.StageDescent, time.Duration(sp.Now()-w0-sp.StageNS(obs.StagePrefetch)-sc.refineNS), 1)
	if n := stats.Reseeks - r0; n > 0 {
		sp.AddInt("reseeks", int64(n))
	}
	return err
}

// step is one level of the walk: the range query (ql, qr] at level i, the
// MaxGap prune on each hit, then the hit's subtree — spawned, recursed into,
// or at the last level the docid scan whose candidates it refines.
func (d *descent) step(stats *QueryStats, sp, rsp *obs.Span, sc *scratch, i int, ql, qr uint64) error {
	// Cancellation is observed between range queries: every recursion level
	// issues at least one, so a deadline cuts a slow wildcard scan off
	// without leaving any shared state behind (the index is read-only).
	if err := d.opts.context().Err(); err != nil {
		return fmt.Errorf("prix: match canceled: %w", err)
	}
	hits, err := scanLevel(d.ix, d.p, i, ql, qr, stats, sc, d.par, sp)
	if err != nil {
		return err
	}
	S, path := sc.S, sc.path
	last := i == len(d.p.syms)-1
	for hi, h := range hits {
		S[i], path[i] = int32(h.level), int32(hi)
		if i > 0 && !d.opts.DisableMaxGap && d.p.prune[i].pruned(int64(S[i]-S[i-1])) {
			stats.TriePathsPruned++
			continue
		}
		if last {
			// Fetch documents whose sequences end at or below this node.
			path[i+1] = 0
			err = d.ix.scanDocIDs(d.p, &d.opts, h.left, h.right, stats, sc, d.par, sp, func(docID uint32) error {
				stats.Candidates++
				e0 := sp.Start()
				err := d.refineInline(sc, docID, stats, rsp)
				sc.refineNS += sp.Now() - e0
				path[i+1]++
				return err
			})
		} else if !d.spawn(sc, i, h) {
			err = d.step(stats, sp, rsp, sc, i+1, h.left, h.right)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// spawn hands the subtree below hit h of level i to a free worker, if there
// is one, on a scratch of its own seeded with the S and path prefixes — the
// inline loop keeps writing the originals. The branch refines onto its own
// stage and, once done, hands its survivors to the caller's found and pools
// its scratch at once.
func (d *descent) spawn(sc *scratch, i int, h hit) bool {
	select {
	case d.sem <- struct{}{}:
	default:
		return false
	}
	bsc := getScratch()
	bsc.levels(len(sc.S))
	bsc.bind(d.p)
	bsc.stage.reset(len(sc.S), d.p.m)
	copy(bsc.S, sc.S[:i+1])
	copy(bsc.path, sc.path[:i+1])
	ks := &QueryStats{}
	d.mu.Lock()
	d.kids = append(d.kids, ks)
	slot := len(d.errs)
	d.errs = append(d.errs, nil)
	d.mu.Unlock()
	// Branch spans attach flat under the filter span, keyed by the descent
	// path — lexicographic key order is exactly the depth-first emission
	// order, so traces read deterministically no matter which branches
	// happened to find free workers.
	var bsp *obs.Span
	if d.sp != nil {
		bsp = d.sp.ChildKeyed("branch", pathKey(bsc.path[:i+1]))
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() { <-d.sem }()
		err := d.walk(ks, bsp, bsp, bsc, i+1, h.left, h.right)
		bsp.End()
		d.mu.Lock()
		d.errs[slot] = err
		d.found.absorb(&bsc.stage)
		d.mu.Unlock()
		putScratch(bsc)
	}()
	return true
}

// pathKey renders a descent path prefix as fixed-width hex, so lexicographic
// key order equals path order.
func pathKey(path []int32) string {
	b := make([]byte, 0, 8*len(path))
	for _, v := range path {
		b = fmt.Appendf(b, "%08x", uint32(v))
	}
	return string(b)
}

// imageAt resolves which image of docID is visible at asOf (0 = latest):
// visible false for none, a zero loc for the current one, else the location
// of the superseded record image an interval points back to.
func (ix *Index) imageAt(docID uint32, asOf uint64) (loc mvcc.Loc, visible bool) {
	if ix.versions == nil {
		return mvcc.Loc{}, true
	}
	iv, ok := ix.versions.At(docID, asOf)
	return iv.Loc, ok
}

// fetchAsOf resolves the image of docID visible at asOf for refinement. The
// current image is read in place from the store's resident shape and LPS into
// v, without reading a page (a document whose record did not read at Open is
// read now); a superseded image is its record, read from the store into dst.
// Both belong to the caller, who may reuse them for its next fetch. It implements the
// graceful-degradation contract (degrade); documents not visible at asOf
// return nil too.
func (ix *Index) fetchAsOf(docID uint32, asOf uint64, stats *QueryStats, dst *docstore.Record, v *docstore.View) (docShape, error) {
	loc, visible := ix.imageAt(docID, asOf)
	if !visible {
		return nil, nil
	}
	if loc.Zero() {
		err := ix.store.ViewOf(docID, v)
		if err == nil {
			return v, nil
		}
		if !errors.Is(err, docstore.ErrNotResident) {
			return nil, ix.degrade(docID, true, err, stats)
		}
	}
	rec, err := ix.readImage(docID, loc, stats, dst)
	if rec == nil {
		return nil, err
	}
	return rec, nil
}

// readImage reads the record image at loc (zero: the current one) into dst.
func (ix *Index) readImage(docID uint32, loc mvcc.Loc, stats *QueryStats, dst *docstore.Record) (*docstore.Record, error) {
	stats.RecordFetches++
	var err error
	if loc.Zero() {
		err = ix.store.GetInto(dst, docID)
	} else {
		err = ix.store.GetAtLocInto(dst, docID, toStoreLoc(loc))
	}
	if err != nil {
		return nil, ix.degrade(docID, loc.Zero(), err, stats)
	}
	return dst, nil
}

// degrade applies the graceful-degradation contract to a failed read of
// docID: a quarantined document is skipped, and one whose current image
// proves corrupt is quarantined on the spot and skipped (nil with
// stats.Degraded set). An unreadable old image degrades the read without
// quarantining the document — its current image may be perfectly healthy.
// Transient faults propagate so callers can retry.
func (ix *Index) degrade(docID uint32, current bool, err error, stats *QueryStats) error {
	switch {
	case errors.Is(err, docstore.ErrQuarantined):
	case IsCorruption(err):
		if current {
			ix.store.Quarantine(docID)
		}
	default:
		return err
	}
	stats.Degraded = true
	return nil
}

// Quarantined returns the docids currently quarantined in the document
// store (ascending; empty when healthy).
func (ix *Index) Quarantined() []uint32 { return ix.store.Quarantined() }

// docShape is what Algorithm 2 reads of a data tree. A latest image is a
// *docstore.View, its resident shape and LPS read in place; a superseded image
// is a *docstore.Record.
type docShape interface {
	Nodes() int32
	ParentOf(post int32) int32 // 0 for the root and for numbers outside the tree
	LabelOf(post int32) (vtrie.Symbol, bool)
}

// refine is Algorithm 2: connectedness (with the §4.5 wildcard chase), gap
// consistency, frequency consistency and leaf matching, against the image
// fetchAsOf resolves. Each phase is charged to its own stage on sp
// (nil-safe): fetch, connect, structure, leaves. S is read; sc lends N, the
// view and the record the document is read into and the stage a surviving
// match is pushed onto (ok true).
func (d *descent) refine(docID uint32, S []int32, stats *QueryStats, sc *scratch, sp *obs.Span) (ok bool, err error) {
	p := d.p
	t0 := sp.Start()
	doc, err := d.ix.fetchAsOf(docID, d.opts.AsOf, stats, &sc.rec, &sc.view)
	sp.Stage(obs.StageFetch, t0)
	if err != nil || doc == nil {
		return false, err
	}
	t1 := sp.Start()
	maxN, ok := refineConnect(p, doc, S, sc.N)
	sp.Stage(obs.StageConnect, t1)
	if !ok {
		return false, nil
	}
	t2 := sp.Start()
	ok = refineStructure(p, sc.N)
	sp.Stage(obs.StageStructure, t2)
	if !ok {
		return false, nil
	}
	t3 := sp.Start()
	ok = refineLeaves(p, doc, docID, S, sc.N, maxN, &sc.stage)
	sp.Stage(obs.StageLeaves, t3)
	return ok, nil
}

// refineConnect fills N from S (N[i] = N_D[S_i], rejecting positions outside
// the sequence) and applies refinement by connectedness; a false return
// rejects the candidate.
func refineConnect(p *plan, doc docShape, S, N []int32) (maxN int32, ok bool) {
	n := len(S)
	for i := 0; i < n; i++ {
		if N[i] = doc.ParentOf(S[i]); N[i] == 0 {
			return 0, false
		}
		maxN = max(maxN, N[i])
	}
	// Refinement by connectedness (Algorithm 2 lines 1-4, with wildcard
	// edges chased through the data NPS as in §4.5). At the last
	// occurrence of N[i], the query node q = npsQ[i] has just lost its
	// last child, so the next query deletion is q itself. For an exact
	// edge the next matched position must therefore be q's image — the
	// node N[i] (Algorithm 2 line 4 compares against S_{i+1}); for a
	// wildcard edge the matched position is a proxy and we instead chase
	// parent links from N[i] to N[i+1], counting steps against the edge.
	for i := 0; i < n; i++ {
		if N[i] == maxN || !isLastOccurrence(N, i) {
			continue
		}
		// If position i is not also the last occurrence on the query
		// side the candidate would fail frequency consistency anyway.
		if !p.lastOcc[i] {
			return 0, false
		}
		if i+1 >= n {
			return 0, false
		}
		edge := p.edges[p.npsQ[i]-1]
		if edge.Exact() {
			if S[i+1] != N[i] {
				return 0, false
			}
			continue
		}
		steps := 0
		cur := N[i]
		okChase := false
		for cur != 0 {
			cur = doc.ParentOf(cur)
			steps++
			if edge.Max != twig.Unbounded && steps > edge.Max {
				break
			}
			if cur == N[i+1] {
				okChase = steps >= edge.Min
				break
			}
		}
		if !okChase {
			return 0, false
		}
	}
	return maxN, true
}

// refineStructure is refinement by structure: gap consistency
// (Definition 3) then frequency consistency (Definition 4).
func refineStructure(p *plan, N []int32) bool {
	n := len(N)
	for i := 0; i+1 < n; i++ {
		dataGap := int64(N[i]) - int64(N[i+1])
		queryGap := int64(p.npsQ[i]) - int64(p.npsQ[i+1])
		switch {
		case dataGap == 0 && queryGap != 0, queryGap == 0 && dataGap != 0:
			return false
		case dataGap*queryGap < 0:
			return false
		case max(queryGap, -queryGap) > max(dataGap, -dataGap):
			return false
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (p.npsQ[i] == p.npsQ[j]) != (N[i] == N[j]) {
				return false
			}
		}
	}
	return true
}

// refineLeaves is the tail of Algorithm 2: root placement, refinement by
// matching leaf nodes (§4.4), and building the canonical embedding, which a
// surviving candidate pushes onto st.
func refineLeaves(p *plan, doc docShape, docID uint32, S, N []int32, maxN int32, st *matchStage) bool {
	// Root placement: anchored queries must map the root onto the
	// document root; leading stars constrain the root image's depth.
	if p.anchored || p.rootEdge.Min > 1 {
		depth := rootDepth(doc, maxN)
		if p.anchored {
			if maxN != doc.Nodes() || p.rootEdge.Min != depth {
				return false
			}
		} else if depth < p.rootEdge.Min ||
			(p.rootEdge.Max != twig.Unbounded && depth > p.rootEdge.Max) {
			return false
		}
	}
	// Refinement by matching leaf nodes (§4.4). The image of query leaf
	// with postorder l is the data node numbered S[l-1]; its label must
	// match. Extended patterns have only dummy leaves, which match the
	// dummy children added under every data leaf, so the check still
	// works uniformly (and is cheap).
	for _, leaf := range p.leaves {
		sym, ok := doc.LabelOf(S[leaf.Post-1])
		if !ok || sym != leaf.Sym {
			return false
		}
	}
	// The candidate survived: only now is it staged, Positions (a copy of
	// S) then Images. Canonical embedding: internal query nodes take their
	// image from N (well defined by frequency consistency); leaves take the
	// matched deletion itself (their edges are exact by construction).
	positions, images := st.push(docID, maxN)
	copy(positions, S)
	for i, q := range p.npsQ {
		if images[q-1] == 0 {
			images[q-1] = N[i]
		}
	}
	for q := 1; q < p.m; q++ {
		if images[q-1] == 0 && !p.dummy[q-1] {
			images[q-1] = S[q-1]
		}
	}
	return true
}

// isLastOccurrence reports whether N[i] does not occur after index i.
func isLastOccurrence(N []int32, i int) bool {
	for j := i + 1; j < len(N); j++ {
		if N[j] == N[i] {
			return false
		}
	}
	return true
}

// rootDepth returns the level (root = 1) of the node numbered post.
func rootDepth(doc docShape, post int32) int {
	depth := 1
	for cur := doc.ParentOf(post); cur != 0; cur = doc.ParentOf(cur) {
		depth++
	}
	return depth
}
