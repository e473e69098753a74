package prix

import (
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/hot"
)

// Tests of the paged read path's memory: who owns a decoded record on each
// route (the scratch of the goroutine refining inline, a fresh one for the
// pipelined record cache and for whole-record readers) and what a query
// allocates for.

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
// of positions and images, one []Match — and nothing for its plan, per range
// query or per candidate: Q5 (5 candidates) and Q6 (158 candidates, each
// decoding a record) both cost 3 objects, 17 while the pattern was nine fresh
// slabs and the emit and fetch two closures, and Q6 1,010 while every
// candidate built a Record, its three lists, and every match a block and a
// dedup key. Pipelined, a unique candidate costs its dedup key and
// one block (its S copy and ordering path), and the query's record cache a
// fresh record per distinct document — ROADMAP item 4 — so the bound pins the
// hand-off and the staged result: Q5 measures 258, Q6 1,210 (268 and 1,215
// while the pattern was fresh slabs, 294 and 1,543 while a candidate was a
// slice, a dedup entry and an ordering string).
func TestPagedMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds scratches under the race detector")
	}
	ix, queries := pagedSwissprot(t)
	for _, tc := range []struct {
		query, par int
		bound      float64
	}{
		{1, 1, 3}, {2, 1, 3},
		{1, 4, 300}, {2, 4, 1340},
	} {
		qs := queries[tc.query]
		q := qs.Query()
		opts := MatchOptions{WarmCache: true, Parallelism: tc.par}
		run := func() {
			ms, stats, err := ix.Match(q, opts)
			if err != nil || len(ms) != qs.Want {
				t.Fatalf("%s: matches = %d, %v; want %d", qs.ID, len(ms), err, qs.Want)
			}
			if stats.HotRecordHits != 0 || stats.RecordFetches == 0 {
				t.Fatalf("%s did not read records from the store: %+v", qs.ID, stats)
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got > tc.bound {
			t.Errorf("%s at parallelism %d: paged Match allocates %.0f objects per run, want <= %.0f",
				qs.ID, tc.par, got, tc.bound)
		}
	}
}

// TestHotSummaryOutlivesScratch: with a budget that holds the lists but only
// part of the summaries, a query admits summaries built from records sitting
// in its scratch. A summary may not alias that scratch: after the scratch has
// served every later candidate (and been poisoned for good measure), every
// resident summary must still navigate exactly like a fresh read of its
// record — TestHotSummaryNavigatesLikeRecord's check, on the admission route.
func TestHotSummaryOutlivesScratch(t *testing.T) {
	ds := datagen.SwissProt(1, 1)
	full, err := Build(ds.Docs, Options{Extended: true, BufferPoolPages: 64, HotBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	budget := full.HotStats().Tier.Bytes
	full.Close()
	// Room for everything, then drop the summaries: the lists stay, and each
	// document is admitted again by the first query that fetches it.
	ix, err := Build(ds.Docs, Options{Extended: true, BufferPoolPages: 64, HotBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for id := 0; id < ix.NumDocs(); id++ {
		ix.hotInvalidateDoc(uint32(id))
	}
	admitted := 0
	for _, qs := range ds.Queries {
		ms, stats, err := ix.Match(qs.Query(), residentOpts)
		if err != nil || len(ms) != qs.Want {
			t.Fatalf("%s: matches = %d, %v; want %d", qs.ID, len(ms), err, qs.Want)
		}
		admitted += stats.RecordFetches - stats.HotRecordHits
	}
	if admitted == 0 {
		t.Fatal("no record was read from the store: nothing was admitted from a scratch")
	}
	for i := 0; i < 16; i++ {
		sc := getScratch()
		sc.rec.DocID, sc.rec.NumNodes = ^uint32(0), -7
		for j := range sc.rec.NPS[:cap(sc.rec.NPS)] {
			sc.rec.NPS[:cap(sc.rec.NPS)][j] = -7
		}
		defer putScratch(sc)
	}
	resident := 0
	for id := 0; id < ix.NumDocs(); id++ {
		sum := new(hot.Summary)
		if !ix.hotSummary(uint32(id), sum) {
			continue
		}
		resident++
		rec, err := ix.store.Get(uint32(id))
		if err != nil {
			t.Fatal(err)
		}
		if fresh := hot.NewSummary(rec); !reflect.DeepEqual(sum, fresh) {
			t.Fatalf("doc %d: resident summary differs from one built off a fresh record", id)
		}
		var a, b docShape = sum, rec
		for post := int32(-1); post <= rec.NumNodes+1; post++ {
			as, aok := a.LabelOf(post)
			bs, bok := b.LabelOf(post)
			if a.ParentOf(post) != b.ParentOf(post) || as != bs || aok != bok {
				t.Fatalf("doc %d node %d: summary (%d, %d, %v) vs record (%d, %d, %v)",
					id, post, a.ParentOf(post), as, aok, b.ParentOf(post), bs, bok)
			}
		}
	}
	if resident == 0 {
		t.Fatal("no summary resident after the queries")
	}
}
