package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/hot"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/server"
	"repro/internal/twig"
)

// layers holds per-layer metric values by name; names missing from it are
// printed as zero, which is what "this layer did no work here" means.
type layers map[string]float64

// ---- counters the untraced blocks move ----

// counterSnap is a point-in-time reading of every public counter a
// workload's layers keep. A traced run reads it before and after the
// untraced reference blocks, so the per-op ratios come from the same ops
// the end-to-end numbers do, with no tracing in the way.
type counterSnap struct {
	pool    pager.Stats // summed over every buffer pool of the system
	hot     hot.Stats
	hits    uint64 // server result cache
	misses  uint64
	shared  uint64
	reject  uint64
	retries uint64 // shard replica retries
	file    fileCounts
}

func addPool(a *pager.Stats, b pager.Stats) {
	a.LogicalReads += b.LogicalReads
	a.PhysicalReads += b.PhysicalReads
	a.Writes += b.Writes
	a.Evictions += b.Evictions
}

func poolsOf(ixs ...*prix.Index) pager.Stats {
	var s pager.Stats
	for _, ix := range ixs {
		addPool(&s, ix.Forest().BufferPool().Stats())
		addPool(&s, ix.Store().BufferPool().Stats())
	}
	return s
}

func (c *counterSnap) addServer(m *server.Metrics) {
	c.hits, c.misses = m.CacheHits.Load(), m.CacheMisses.Load()
	c.shared, c.reject = m.FlightShared.Load(), m.Rejected.Load()
}

type layerRun struct {
	w      workload
	c0, c1 counterSnap
	m0, m1 runtime.MemStats
	ops    int
}

func startLayerRun(w workload) *layerRun {
	r := &layerRun{w: w, c0: w.counters()}
	runtime.ReadMemStats(&r.m0)
	return r
}

func (r *layerRun) stop(ops int) {
	runtime.ReadMemStats(&r.m1)
	r.c1 = r.w.counters()
	r.ops = ops
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocs is heap objects and kilobytes allocated per op across the measured
// blocks, by the whole process: server, engine and the (frozen) client.
func (r *layerRun) allocs() (perOp, kbPerOp float64) {
	n := float64(r.ops)
	return ratio(float64(r.m1.Mallocs-r.m0.Mallocs), n), ratio(float64(r.m1.TotalAlloc-r.m0.TotalAlloc)/1024, n)
}

func (r *layerRun) fill(l layers) {
	n := float64(r.ops)
	d := func(a, b uint64) float64 { return float64(b - a) }
	logical := d(r.c0.pool.LogicalReads, r.c1.pool.LogicalReads)
	physical := d(r.c0.pool.PhysicalReads, r.c1.pool.PhysicalReads)
	l["pager.logical_reads_op"] = ratio(logical, n)
	l["pager.physical_reads_op"] = ratio(physical, n)
	l["pages_op"] = ratio(physical, n)
	l["pager.hit_ratio"] = ratio(logical-physical, logical)
	l["pager.evictions_op"] = ratio(d(r.c0.pool.Evictions, r.c1.pool.Evictions), n)
	l["pager.writes_op"] = ratio(d(r.c0.file.writes, r.c1.file.writes), n)
	l["pager.syncs_op"] = ratio(d(r.c0.file.syncs, r.c1.file.syncs), n)
	l["pager.bytes_written_op"] = ratio(d(r.c0.file.bytes, r.c1.file.bytes), n)
	l["rt.gc_pause_ms"] = d(r.m0.PauseTotalNs, r.m1.PauseTotalNs) / 1e6
	hits, misses := d(r.c0.hits, r.c1.hits), d(r.c0.misses, r.c1.misses)
	l["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["server.flight_shared"] = d(r.c0.shared, r.c1.shared)
	l["server.rejected"] = d(r.c0.reject, r.c1.reject)
	l["shard.retries"] = d(r.c0.retries, r.c1.retries)
	l["hot.resident_mb"] = float64(r.c1.hot.Bytes) / (1 << 20)
	l["hot.evictions"] = d(r.c0.hot.Evictions, r.c1.hot.Evictions)
}

// ---- harness-side spans ----

// span is one timed call into a layer, made by the harness. Spans of one op
// share Op; Parent is the ID of the span that caused this one, or -1. The
// layers expose no hooks of their own yet, so a child is a *replay*: the
// same query sent straight to the layer below after the block's own calls
// were timed. Start and End are the replay's own clock; nesting is logical.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// child records a span whose duration a layer reported itself (the
// engine's own stage totals), anchored at its parent's start.
func (t *tracer) child(name string, op, parent int, d time.Duration) {
	s := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: s, End: s + int64(d)})
}

// spanMetrics maps span names to the per-layer metric each feeds: the
// median over the traced block of the span's duration, or of its self time
// (duration minus its children's).
var spanMetrics = []struct {
	span, metric string
	self         bool
}{
	{"twig.parse", "twig.parse_us", false},
	{"server.http", "server.http_self_us", true},
	{"server.exec", "server.exec_self_us", true},
	{"prix.match", "prix.match_us", false},
	{"prix.descent", "prix.descent_us", false},
	{"prix.refine", "prix.refine_us", false},
	{"hot.scan", "hot.scan_us", false},
	{"hot.summary_decode", "hot.summary_decode_us", false},
	{"pager.read", "pager.read_us", false},
	{"btree.scan", "btree.scan_us", false},
	{"btree.insert", "btree.insert_us", false},
	{"docstore.get", "docstore.get_us", false},
	{"shard.fanout", "shard.fanout_self_us", true},
	{"mvcc.diff", "mvcc.diff_us", false},
}

// e2eSpan names the span that is the op as a client sees it; its median
// against the untraced median is the tracing overhead.
var e2eSpans = map[string]bool{"server.http": true, "root.read": true}

func (t *tracer) fill(l layers, untracedP50ms float64) {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	var e2e []float64
	for i, s := range t.spans {
		d := float64(s.End-s.Start) / 1e3
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], math.Max(0, d-float64(childSum[i])/1e3))
		if e2eSpans[s.Name] {
			e2e = append(e2e, d/1e3)
		}
	}
	for _, sm := range spanMetrics {
		src := durs
		if sm.self {
			src = selfs
		}
		if v := src[sm.span]; len(v) > 0 {
			l[sm.metric] = median(v)
		}
	}
	if untracedP50ms > 0 && len(e2e) > 0 {
		l["trace.overhead_pct"] = 100 * (median(e2e) - untracedP50ms) / untracedP50ms
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}{"harness-side spans; a child is a replay of the same op against the layer below its parent", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- traced replay of one query through the read layers ----

// readLayers is how a traced HTTP op reaches each layer below the wire.
type readLayers struct {
	cl *client
	// exec is a cache-less executor over the same source: a replay through
	// the serving executor would hit the entry the HTTP call just cached.
	exec  *server.Executor
	match func(q *twig.Query, o prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error)
	// before runs ahead of each replay; cold_single drops the clean pages
	// the previous call left, so a replay pages like the call it mirrors.
	before func()
	// probe times the substrate below the engine for this op; its spans are
	// roots of their own, tied to the op by its id.
	probe func(tr *tracer, op int, q *twig.Query, ms []prix.Match)
}

// queryTotals sums the engine's own per-query accounting over a traced
// block; the counts are per query and repeat exactly.
type queryTotals struct {
	ops                                      int
	rangeQ, cand, pruned, matches            int
	fetches, recHits, hotPostings, hotRecord int
	respBytes                                int
}

func (qt *queryTotals) add(st *prix.QueryStats) {
	qt.ops++
	qt.rangeQ += st.RangeQueries
	qt.cand += st.Candidates
	qt.pruned += st.TriePathsPruned
	qt.matches += st.Matches
	qt.fetches += st.RecordFetches
	qt.recHits += st.RecordCacheHits
	qt.hotPostings += st.HotPostingHits
	qt.hotRecord += st.HotRecordHits
}

func (qt *queryTotals) fill(l layers) {
	n := float64(qt.ops)
	l["prix.range_queries_op"] = ratio(float64(qt.rangeQ), n)
	l["prix.candidates_op"] = ratio(float64(qt.cand), n)
	l["prix.pruned_op"] = ratio(float64(qt.pruned), n)
	l["prix.useful_ratio"] = ratio(float64(qt.matches), float64(qt.cand))
	l["docstore.fetches_op"] = ratio(float64(qt.fetches), n)
	l["docstore.record_cache_hits_op"] = ratio(float64(qt.recHits), n)
	l["hot.posting_hits_op"] = ratio(float64(qt.hotPostings), n)
	l["hot.record_hits_op"] = ratio(float64(qt.hotRecord), n)
	l["server.resp_bytes_op"] = ratio(float64(qt.respBytes), n)
}

// tracedMatch runs one query against the engine with the engine's own
// trace attached and hangs its stage totals under a prix.match span.
func tracedMatch(tr *tracer, op, parent int, q *twig.Query, o prix.MatchOptions,
	match func(*twig.Query, prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error)) ([]prix.Match, *prix.QueryStats, error) {
	ot := obs.NewTrace("bench")
	o.Trace = ot
	m := tr.begin("prix.match", op, parent)
	res, st, err := match(q, o)
	tr.end(m)
	ot.Finish()
	d, _ := ot.StageTotals()
	tr.child("prix.descent", op, m, d[obs.StageDescent]+d[obs.StagePrefetch])
	tr.child("prix.refine", op, m, d[obs.StageFetch]+d[obs.StageConnect]+d[obs.StageStructure]+d[obs.StageLeaves])
	return res, st, err
}

// traceReads traces seq in two passes. The first is the block as a client
// issues it — HTTP calls back to back, a span around each — so the traced
// op latencies differ from the untraced ones by the cost of recording a
// span and nothing else. The second replays each op through the layers
// below the wire: parse, the executor, the engine, the substrate probes.
func (e *env) traceReads(tr *tracer, l layers, rl readLayers, seq []int) error {
	var qt queryTotals
	https := make([]int, len(seq))
	cached := make([]bool, len(seq))
	for op, qi := range seq {
		https[op] = tr.begin("server.http", op, -1)
		r, err := rl.cl.do(qi)
		tr.end(https[op])
		if err != nil {
			return err
		}
		cached[op] = r.Cached
		qt.respBytes += r.bytes
	}
	for op, qi := range seq {
		h := https[op]
		p := tr.begin("twig.parse", op, h)
		q, err := server.ParseQuery(e.qs[qi].src)
		tr.end(p)
		if err != nil {
			return err
		}
		// A cached reply executed nothing, so the executor replay is not its
		// child and must not be subtracted from it.
		parent := h
		if cached[op] {
			parent = -1
		}
		rl.before()
		x := tr.begin("server.exec", op, parent)
		_, err = rl.exec.Execute(context.Background(), q, server.QueryOptions{Parallelism: 1})
		tr.end(x)
		if err != nil {
			return err
		}
		rl.before()
		ms, st, err := tracedMatch(tr, op, x, q, prix.MatchOptions{WarmCache: true, Parallelism: 1}, rl.match)
		if err != nil {
			return err
		}
		qt.add(st)
		rl.probe(tr, op, q, ms)
	}
	qt.fill(l)
	return nil
}

// ---- substrate probes ----

// queryLabels lists the distinct (label, isValue) pairs of a twig.
func queryLabels(q *twig.Query) []*twig.Node {
	var out []*twig.Node
	seen := map[string]bool{}
	var walk func(n *twig.Node)
	walk = func(n *twig.Node) {
		if k := labelKey(n.Label, n.IsValue); !seen[k] {
			seen[k] = true
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(q.Root)
	return out
}

// posting is one Trie-Symbol tree entry as the engine stores it: key =
// LeftPos, value = RightPos (8 bytes, key order) + level (4 bytes LE).
type posting struct {
	left, right uint64
	level       uint32
}

// probeScan times a full Tree.Scan of the Trie-Symbol tree of every label
// in the query — the B+-tree work a descent over those labels is made of —
// and returns the entries it saw, one list per tree.
func probeScan(tr *tracer, op int, ix *prix.Index, q *twig.Query) [][]posting {
	var trees []*btree.Tree
	for _, n := range queryLabels(q) {
		sym, ok := prix.LookupSymbol(ix.Store().Dict(), n.Label, n.IsValue)
		if !ok {
			continue
		}
		if t := ix.Forest().Lookup("s" + strconv.FormatUint(uint64(sym), 10)); t != nil {
			trees = append(trees, t)
		}
	}
	out := make([][]posting, len(trees))
	lo, hi := btree.KeyUint64(0), btree.KeyUint64(math.MaxUint64)
	s := tr.begin("btree.scan", op, -1)
	for i, t := range trees {
		t.Scan(lo, hi, true, true, func(k, v []byte) bool {
			if len(v) >= 12 {
				out[i] = append(out[i], posting{btree.Uint64Key(k), btree.Uint64Key(v[:8]),
					uint32(v[8]) | uint32(v[9])<<8 | uint32(v[10])<<16 | uint32(v[11])<<24})
			}
			return true
		})
	}
	tr.end(s)
	return out
}

func countPostings(lists [][]posting) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

// probeGets times Store.Get for the first few matched documents.
func probeGets(tr *tracer, op int, st *docstore.Store, docs []uint32) []*docstore.Record {
	var recs []*docstore.Record
	for _, d := range docs {
		g := tr.begin("docstore.get", op, -1)
		rec, err := st.Get(d)
		tr.end(g)
		if err == nil {
			recs = append(recs, rec)
		}
	}
	return recs
}

// firstDocs returns up to n distinct document ids of a result.
func firstDocs(ms []prix.Match, n int) []uint32 {
	var out []uint32
	for _, m := range ms {
		if len(out) == n {
			break
		}
		if len(out) == 0 || out[len(out)-1] != m.DocID {
			out = append(out, m.DocID)
		}
	}
	return out
}

// probeHot times the hot tier's two decoders on this op's own data: a scan
// of the compressed form of the posting lists just read, and a summary
// decode of the records just fetched.
func probeHot(tr *tracer, op int, lists [][]posting, recs []*docstore.Record) {
	var pls []*hot.Postings
	for _, posts := range lists {
		b := hot.NewPostingsBuilder()
		for _, p := range posts {
			b.Add(p.left, p.right, p.level)
		}
		pls = append(pls, b.Build())
	}
	s := tr.begin("hot.scan", op, -1)
	for _, pl := range pls {
		pl.Scan(0, math.MaxUint64, true, true, func(uint64, uint64, uint32) bool { return true })
	}
	tr.end(s)
	for _, rec := range recs {
		sum := hot.NewSummary(rec)
		if sum == nil {
			continue
		}
		s := tr.begin("hot.summary_decode", op, -1)
		sum.Record()
		tr.end(s)
	}
}
