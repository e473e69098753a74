package prix

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/docstore"
	"repro/internal/twig"
)

// Tests of the paged read path's memory: who owns a decoded record on each
// route (the scratch of the walker refining the candidate, a fresh one for
// whole-record readers) and what a query allocates for.

// pagedSwissprot builds a SWISSPROT EPIndex with no hot tier behind a 64-page
// pool — every range query pins tree pages, every candidate decodes a record —
// and returns it with the dataset's planted queries.
func pagedSwissprot(tb testing.TB) (*Index, []datagen.QuerySpec) {
	tb.Helper()
	ds := datagen.SwissProt(1, 1)
	ix, err := Build(ds.Docs, Options{Extended: true, BufferPoolPages: 64})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ix.Close() })
	return ix, ds.Queries
}

// TestPagedMatchAllocs is TestResidentMatchAllocs without the tier. On one
// goroutine a Match allocates for its answer alone — its QueryStats, one block
// of positions and images, one []Match, and none of the three when a warmed
// MatchOptions.Into lends them — and nothing for its plan, per range
// query or per candidate: Q5 (5 candidates) and Q6 (158 candidates, each
// refined against its resident shape) both cost 3 objects, 17 while the pattern was nine fresh
// slabs and the emit and fetch two closures, and Q6 1,010 while every
// candidate built a Record, its three lists, and every match a block and a
// dedup key. At parallelism 4 every walker refines its own candidates, so a
// candidate costs nothing and the count is the subtree fan-out: each spawned
// branch's goroutine, closure and stats slot, and the B+-tree readahead. Q5 measures 184, Q6 827; the bounds keep the headroom they had
// over 258 and 1,210 when a candidate crossed a channel to a refinement
// pool with its dedup key and ordering block and the query's record cache
// held a fresh record per document (268 and 1,215 while the pattern was
// fresh slabs, 294 and 1,543 while a candidate was a slice, a dedup entry
// and an ordering string). The level cursors' page buffers live in the
// pooled scratch, so heavyTreebank on MIX — 16,020 range queries through
// four level cursors and the docid cursor, each copying the leaves it
// enters — costs the same 3 objects on one goroutine, and 0 into a buffer.
func TestPagedMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds scratches under the race detector")
	}
	ix, queries := pagedSwissprot(t)
	into := NewMatchBuf()
	defer into.Release()
	for _, tc := range []struct {
		query, par int
		bound      float64
		into       *MatchBuf
	}{
		{1, 1, 3, nil}, {2, 1, 3, nil},
		{1, 1, 0, into}, {2, 1, 0, into},
		{1, 4, 214, nil}, {2, 4, 917, nil},
	} {
		qs := queries[tc.query]
		q := qs.Query()
		opts := MatchOptions{WarmCache: true, Parallelism: tc.par, Into: tc.into}
		run := func() {
			ms, stats, err := ix.Match(q, opts)
			if err != nil || len(ms) != qs.Want {
				t.Fatalf("%s: matches = %d, %v; want %d", qs.ID, len(ms), err, qs.Want)
			}
			if stats.HotRecordHits != 0 || stats.RecordFetches != 0 || stats.Candidates == 0 {
				t.Fatalf("%s refined against records instead of resident shapes: %+v", qs.ID, stats)
			}
		}
		run()
		got := testing.AllocsPerRun(20, run)
		t.Logf("%s at parallelism %d, into a buffer %v: %.0f objects per run", qs.ID, tc.par, tc.into != nil, got)
		if got > tc.bound {
			t.Errorf("%s at parallelism %d, into a buffer %v: paged Match allocates %.0f objects per run, want <= %.0f",
				qs.ID, tc.par, tc.into != nil, got, tc.bound)
		}
	}
	mix, err := Build(mixDocs(t), Options{Extended: true, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer mix.Close()
	q := twig.MustParse(heavyTreebank)
	for _, tc := range []struct {
		bound float64
		into  *MatchBuf
	}{{3, nil}, {0, into}} {
		opts := MatchOptions{WarmCache: true, Parallelism: 1, Into: tc.into}
		run := func() {
			if ms, st, err := mix.Match(q, opts); err != nil || len(ms) != 2 || st.RangeQueries != 16020 {
				t.Fatalf("%s: %d matches, %v; want 2 from 16,020 range queries", heavyTreebank, len(ms), err)
			}
		}
		run()
		if got := testing.AllocsPerRun(5, run); got > tc.bound {
			t.Errorf("%s into a buffer %v: paged Match allocates %.0f objects per run, want <= %.0f", heavyTreebank, tc.into != nil, got, tc.bound)
		}
	}
}

// TestHotSummaryOutlivesScratch: the view refinement reads aliases the
// store's shape dictionary and resident LPS, never a query scratch, and
// neither rewrites a byte it handed out. A view taken through a scratch must
// still navigate exactly like a fresh read of its record after the scratch
// has been pooled, reused and poisoned, and after inserts have interned new
// shapes and grown the dictionary's and the LPS arena's arrays under it.
func TestHotSummaryOutlivesScratch(t *testing.T) {
	docs := parallelCorpus()[:20]
	di, err := NewDynamicIndex(docs, Options{Extended: true, BufferPoolPages: 64}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix := di.Index()
	var views []docstore.View
	for id := 0; id < ix.NumDocs(); id++ {
		sc := getScratch()
		doc, err := ix.fetchAsOf(uint32(id), 0, &QueryStats{}, &sc.rec, &sc.view)
		if err != nil || doc == nil {
			t.Fatalf("doc %d: %v, %v", id, doc, err)
		}
		views = append(views, *doc.(*docstore.View))
		putScratch(sc)
	}
	for i := 0; i < 16; i++ {
		sc := getScratch()
		sc.view = docstore.View{}
		sc.rec.DocID, sc.rec.NumNodes = ^uint32(0), -7
		defer putScratch(sc)
	}
	before := ix.store.NumShapes()
	for i, d := range parallelCorpus()[20:] {
		c := d.Clone()
		c.ID = 20 + i
		if err := di.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	if ix.store.NumShapes() == before {
		t.Fatal("the inserts interned no new shape")
	}
	for id, v := range views {
		rec, err := ix.store.Get(uint32(id))
		if err != nil {
			t.Fatal(err)
		}
		if v.Nodes() != rec.NumNodes {
			t.Fatalf("doc %d: view has %d nodes, record %d", id, v.Nodes(), rec.NumNodes)
		}
		for post := int32(-1); post <= rec.NumNodes+1; post++ {
			vs, vok := v.LabelOf(post)
			rs, rok := rec.LabelOf(post)
			if v.ParentOf(post) != rec.ParentOf(post) || vs != rs || vok != rok {
				t.Fatalf("doc %d node %d: view (%d, %d, %v), record (%d, %d, %v)",
					id, post, v.ParentOf(post), vs, vok, rec.ParentOf(post), rs, rok)
			}
		}
	}
}
