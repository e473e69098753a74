package prix

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/datagen"
	"repro/internal/docstore"
	"repro/internal/hot"
	"repro/internal/mvcc"
	"repro/internal/pager"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// buildHot is build() with a hot-tier budget.
func buildHot(t testing.TB, extended bool, budget int64, docs ...*xmltree.Document) *Index {
	t.Helper()
	ix, err := Build(docs, Options{Extended: extended, BufferPoolPages: 64, HotBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// hotComparable strips the stats fields that legitimately differ between a
// hot and an uncompressed run of the same query: page reads (the tier's
// whole point), tier hit counters, timing, and re-seeks, which at
// Parallelism above 1 depend on which subtrees spawned (at Parallelism 1
// the two sources re-seek alike: TestCursorReseeks, TestNestedTwigReseeks).
// Everything the descent and refinement count — range queries, prunes,
// candidates, matches, record fetches — must be identical.
func hotComparable(s *QueryStats) QueryStats {
	c := *s
	c.PagesRead = 0
	c.Reseeks = 0
	c.HotPostingHits = 0
	c.HotRecordHits = 0
	c.Elapsed = 0
	c.DegradedShards = nil
	return c
}

// TestHotDifferential is the tentpole's core contract: an index serving
// range scans and record fetches from the compressed hot tier returns
// byte-identical matches — and identical work counters — to its
// uncompressed twin, for every differential query shape, ordered and
// unordered, serial and parallel, on both index kinds. It also proves the
// tier actually served: a fully resident corpus must answer the exact-shape
// suite with zero physical page reads (refinement and the single-node scan
// read the store's resident shapes and LPS, no record).
func TestHotDifferential(t *testing.T) {
	docs := parallelCorpus()
	for _, extended := range []bool{false, true} {
		cold := build(t, extended, docs...)
		hotIx := buildHot(t, extended, 16<<20, docs...)
		if st := hotIx.HotStats(); !st.Enabled || st.Tier.Bytes == 0 || st.Tier.Items == 0 {
			t.Fatalf("ext=%v: tier not resident after preload: %+v", extended, st)
		}
		for _, sh := range diffShapes {
			q := twig.MustParse(sh.src)
			modes := []bool{false}
			if sh.branches {
				modes = append(modes, true)
			}
			for _, unordered := range modes {
				for _, par := range []int{1, 4} {
					opts := MatchOptions{WarmCache: true, Unordered: unordered, Parallelism: par}
					wantMS, wantStats, wantErr := cold.Match(q, opts)
					gotMS, gotStats, gotErr := hotIx.Match(q, opts)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("ext=%v %s unordered=%v par=%d: hot err %v, cold err %v",
							extended, sh.src, unordered, par, gotErr, wantErr)
					}
					if wantErr != nil {
						continue
					}
					if !reflect.DeepEqual(gotMS, wantMS) {
						t.Errorf("ext=%v %s unordered=%v par=%d: hot matches diverge\n got %v\nwant %v",
							extended, sh.src, unordered, par, gotMS, wantMS)
					}
					if got, want := hotComparable(gotStats), hotComparable(wantStats); !reflect.DeepEqual(got, want) {
						t.Errorf("ext=%v %s unordered=%v par=%d: hot stats = %+v, cold %+v",
							extended, sh.src, unordered, par, got, want)
					}
					if par == 1 {
						// Multi-node shapes descend the trie (posting hits);
						// the single-node shape scans resident images.
						if q.Size() > 1 && gotStats.HotPostingHits == 0 {
							t.Errorf("ext=%v %s: no hot posting hits despite resident tier", extended, sh.src)
						}
						if gotStats.RecordFetches != 0 {
							t.Errorf("ext=%v %s: %d record fetches for latest images", extended, sh.src, gotStats.RecordFetches)
						}
					}
				}
			}
		}
		// Fully hot-resident: the whole query path must run without a single
		// physical page read (the cold twin, same shapes, reads plenty).
		for _, sh := range diffShapes {
			_, stats, err := hotIx.Match(twig.MustParse(sh.src), MatchOptions{Parallelism: 1})
			if errors.Is(err, ErrNeedsExtendedIndex) && !extended {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if stats.PagesRead != 0 {
				t.Errorf("ext=%v %s: %d physical reads on a hot-resident index", extended, sh.src, stats.PagesRead)
			}
		}
		if st := hotIx.HotStats(); st.Tier.Hits == 0 {
			t.Errorf("ext=%v: tier recorded no hits: %+v", extended, st)
		}
		if err := cold.Close(); err != nil {
			t.Fatal(err)
		}
		if err := hotIx.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHotE2E drives the dynamic write path against the tier: a hot dynamic
// index and its uncompressed twin ingest the same documents while queries
// hammer the hot index concurrently (the -race run is the point), and at
// every quiescent point both twins must return byte-identical matches at
// serial and parallel settings — inserts invalidate the leaves whose range
// holds their keys, so a query can never see a stale leaf. It runs with a
// budget for the whole index and with one for half of its two leaves, where
// the invalidations, the lazy admissions of missed leaves and the LRU's
// evictions all happen together.
func TestHotE2E(t *testing.T) {
	for _, budget := range []int64{8 << 20, pager.PageDataSize + 1024} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) { testHotE2E(t, budget) })
	}
}

func testHotE2E(t *testing.T, budget int64) {
	docs := parallelCorpus()
	initial, rest := docs[:6], docs[6:]
	mk := func(budget int64) *DynamicIndex {
		di, err := NewDynamicIndex(initial, Options{BufferPoolPages: 64, HotBudget: budget},
			DynamicOptions{Alpha: 2, Spread: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		return di
	}
	cold := mk(0)
	hotDi := mk(budget)
	queries := rpShapes()

	compare := func(label string) {
		t.Helper()
		for _, q := range queries {
			for _, par := range []int{1, 4} {
				opts := MatchOptions{Parallelism: par}
				wantMS, wantStats, err := cold.Match(q, opts)
				if err != nil {
					t.Fatalf("%s %s par=%d cold: %v", label, q, par, err)
				}
				gotMS, gotStats, err := hotDi.Match(q, opts)
				if err != nil {
					t.Fatalf("%s %s par=%d hot: %v", label, q, par, err)
				}
				if !reflect.DeepEqual(gotMS, wantMS) {
					t.Fatalf("%s %s par=%d: hot matches diverge\n got %v\nwant %v", label, q, par, gotMS, wantMS)
				}
				if got, want := hotComparable(gotStats), hotComparable(wantStats); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s par=%d: hot stats = %+v, cold %+v", label, q, par, got, want)
				}
			}
		}
	}
	compare("initial")

	// Concurrent phase: four query workers loop over the shapes against the
	// hot index while the main goroutine inserts into both twins. Results
	// are not compared here (the twins pass through different insert counts
	// at different instants); the workers exist to race reads, lazy tier
	// builds and invalidations against the writer under -race.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				if _, _, err := hotDi.Match(q, MatchOptions{Parallelism: 1 + i%3}); err != nil {
					t.Errorf("concurrent query %s: %v", q, err)
					return
				}
			}
		}(w)
	}
	for _, d := range rest {
		if err := cold.Insert(d); err != nil {
			t.Fatal(err)
		}
		if err := hotDi.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	compare("after concurrent inserts")

	// A forest rebuild replaces every structure; the tier must start over
	// and the twins, both rebuilt, must still agree.
	for _, di := range []*DynamicIndex{cold, hotDi} {
		if _, err := di.Index().RepairForest(); err != nil {
			t.Fatal(err)
		}
	}
	compare("after forest rebuild")

	st := hotDi.Stats().Hot
	if !st.Enabled || st.Tier.Hits == 0 {
		t.Errorf("hot tier unused during e2e: %+v", st)
	}
	if budget < 2*pager.PageDataSize && st.Tier.Evictions == 0 {
		t.Errorf("a one-leaf budget evicted nothing: %+v", st)
	}
	if cst := cold.Stats().Hot; cst.Enabled {
		t.Errorf("uncompressed twin reports a tier: %+v", cst)
	}
	for _, di := range []*DynamicIndex{cold, hotDi} {
		if err := di.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHotEvictionUnderPressure pins LRU demotion: a budget of about three
// leaves, against an index of many more, keeps serving correct results
// while it evicts, and the queries run partly from the tier and partly on
// the paged path (a symbol whose range outgrows the budget never resolves,
// and once refused is not read for the tier again).
func TestHotEvictionUnderPressure(t *testing.T) {
	docs := residencyCorpus()[:800]
	cold := build(t, false, docs...)
	hotIx := buildHot(t, false, 3*pager.PageDataSize+1024, docs...)
	if leaves := treeLeaves(t, hotIx); leaves < 8 {
		t.Fatalf("the index has %d leaves; too few to press a three-leaf budget", leaves)
	}
	var hits, ranges int
	for _, q := range rpShapes() {
		wantMS, _, err := cold.Match(q, MatchOptions{WarmCache: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		gotMS, stats, err := hotIx.Match(q, MatchOptions{WarmCache: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotMS, wantMS) {
			t.Errorf("%s: matches diverge under tier pressure", q)
		}
		hits, ranges = hits+stats.HotPostingHits, ranges+stats.RangeQueries
	}
	st := hotIx.HotStats()
	if st.Tier.Bytes > st.Tier.Budget || st.Tier.Evictions == 0 {
		t.Errorf("tier over budget or never evicting: %+v", st)
	}
	if hits == 0 || hits >= ranges {
		t.Errorf("%d of %d range queries served from the tier, want some and not all", hits, ranges)
	}
	// A symbol whose postings span more leaves than the budget holds is
	// refused once, admitting and evicting nothing, and not read for the
	// tier again: a second query over it admits no leaf.
	wide := ""
	for _, label := range []string{"a", "b", "c", "d", "e"} {
		sym, _ := LookupSymbol(hotIx.store.Dict(), label, false)
		lo, hi := symRange(sym)
		n := 0
		err := hotIx.postings.LeavesNoFill(lo, false, func(_ []byte, _, lhi btree.LeafKey, last bool) bool {
			n++
			return !last && !hi.Less(lhi)
		})
		if err != nil {
			t.Fatal(err)
		}
		if int64(n)*pager.PageDataSize > st.Tier.Budget {
			wide = label
			break
		}
	}
	if wide == "" {
		t.Fatal("no symbol's postings outgrow the budget")
	}
	q := twig.MustParse("//" + wide + "/a")
	wantMS, _, err := cold.Match(q, MatchOptions{WarmCache: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		before := hotIx.HotStats().Tier
		gotMS, stats, err := hotIx.Match(q, MatchOptions{WarmCache: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		after := hotIx.HotStats().Tier
		if !reflect.DeepEqual(gotMS, wantMS) {
			t.Errorf("%s run %d: matches diverge under tier pressure", q, run)
		}
		if stats.HotPostingHits >= stats.RangeQueries {
			t.Errorf("%s run %d: %d of %d range queries from the tier, want the wide level paged", q, run, stats.HotPostingHits, stats.RangeQueries)
		}
		if run == 1 && (after.Items != before.Items || after.Bytes != before.Bytes || after.Evictions != before.Evictions) {
			t.Errorf("%s again: the tier went from %+v to %+v, want no admission", q, before, after)
		}
	}
}

// TestHotStatsJSONShape pins the exported stats surface the server's
// /stats block marshals.
func TestHotStatsJSONShape(t *testing.T) {
	ix := buildHot(t, false, 1<<20, xmltreetest.PaperTree(0))
	st := ix.HotStats()
	if !st.Enabled {
		t.Fatal("tier disabled")
	}
	if st.Tier.Budget != 1<<20 {
		t.Fatalf("budget = %d", st.Tier.Budget)
	}
	if s := fmt.Sprintf("%+v", st); s == "" {
		t.Fatal("unprintable")
	}
}

// TestHotInvalidateMutations covers the hot tier's new mutation
// invalidation sites: after Delete, Update and Patch, a hot-tier index
// must answer every probe exactly like an uncompressed twin that applied
// the same mutations — a stale compressed docid run or posting list would
// resurrect deleted documents or serve superseded content.
func TestHotInvalidateMutations(t *testing.T) {
	docs := parallelCorpus()[:12]
	hot, err := NewDynamicIndex(docs, Options{
		Extended: true, BufferPoolPages: 64, HotBudget: 16 << 20,
	}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer hot.Close()
	cold, err := NewDynamicIndex(docs, Options{
		Extended: true, BufferPoolPages: 64,
	}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()

	probes := versionCrashQueries
	counts := func(di *DynamicIndex, asOf uint64) []int {
		out := make([]int, len(probes))
		for i, src := range probes {
			ms, _, err := di.Match(twig.MustParse(src), MatchOptions{WarmCache: true, AsOf: asOf})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			out[i] = len(ms)
		}
		return out
	}

	// Warm the tier so the mutations below have something to invalidate.
	counts(hot, 0)
	if st := hot.Index().HotStats(); !st.Enabled || st.Tier.Items == 0 {
		t.Fatalf("tier not resident after warmup: %+v", st)
	}

	// The patch ships doc 6 the content of doc 7; both twins intern the
	// same dictionary (identical corpus, identical order), so one patch
	// applies to both.
	a, err := hot.Index().store.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hot.Index().store.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	patch := mvcc.Diff(recPairs(a), recPairs(b), recLeaves(a), recLeaves(b), b.NumNodes)

	updated := variantDoc(docs[4], 3)
	steps := []struct {
		name string
		run  func(di *DynamicIndex) error
	}{
		{"delete", func(di *DynamicIndex) error { _, err := di.Delete(3); return err }},
		{"update", func(di *DynamicIndex) error { _, err := di.Update(4, updated); return err }},
		{"patch", func(di *DynamicIndex) error { _, err := di.Patch(6, patch); return err }},
	}
	for _, step := range steps {
		if err := step.run(hot); err != nil {
			t.Fatalf("%s on hot: %v", step.name, err)
		}
		if err := step.run(cold); err != nil {
			t.Fatalf("%s on cold: %v", step.name, err)
		}
		// Two passes: the first may rebuild tier entries, the second serves
		// from them — both must agree with the uncompressed twin.
		want := counts(cold, 0)
		for pass := 0; pass < 2; pass++ {
			if got := counts(hot, 0); !reflect.DeepEqual(got, want) {
				t.Errorf("after %s pass %d: hot %v, cold %v", step.name, pass, got, want)
			}
		}
		// AS OF the mutation and AS OF the state before it (0 on the first
		// step reads the latest again).
		v := hot.VersionStats().Current
		for _, asOf := range []uint64{v - 1, v} {
			if got, want := counts(hot, asOf), counts(cold, asOf); !reflect.DeepEqual(got, want) {
				t.Errorf("after %s AS OF %d: hot %v, cold %v", step.name, asOf, got, want)
			}
		}
	}
}

// TestHotSummaryNavigatesLikeRecord holds refinement's docShape
// implementations against each other on every document of the three
// generated datasets, as stored by an EPIndex (the extended trees are the
// larger ones) and an RPIndex (value leaves): the store's resident view
// (shape and LPS) and the packed hot.Summary must answer Nodes, ParentOf and
// LabelOf — for every node and for numbers outside the tree — exactly as the
// decoded record does, and the view must fill the record back whole.
func TestHotSummaryNavigatesLikeRecord(t *testing.T) {
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, extended := range []bool{true, false} {
			ix := build(t, extended, ds.Docs...)
			for id := 0; id < ix.NumDocs(); id++ {
				rec, err := ix.store.Get(uint32(id))
				if err != nil {
					t.Fatal(err)
				}
				sum := hot.NewSummary(rec)
				if sum == nil {
					t.Fatalf("%s doc %d: no summary", name, id)
				}
				var v docstore.View
				if err := ix.store.ViewOf(uint32(id), &v); err != nil {
					t.Fatal(err)
				}
				var filled docstore.Record
				if err := v.Fill(&filled); err != nil {
					t.Fatal(err)
				}
				filled.DocID = rec.DocID
				if !reflect.DeepEqual(&filled, rec) {
					t.Fatalf("%s doc %d: the view fills %+v, the record is %+v", name, id, filled, *rec)
				}
				var a, s, b docShape = sum, &v, rec
				if a.Nodes() != b.Nodes() || s.Nodes() != b.Nodes() {
					t.Fatalf("%s doc %d: Nodes %d / %d vs %d", name, id, a.Nodes(), s.Nodes(), b.Nodes())
				}
				for post := int32(-1); post <= rec.NumNodes+1; post++ {
					as, aok := a.LabelOf(post)
					ss, sok := s.LabelOf(post)
					bs, bok := b.LabelOf(post)
					if a.ParentOf(post) != b.ParentOf(post) || as != bs || aok != bok {
						t.Fatalf("%s doc %d node %d: summary (%d, %d, %v) vs record (%d, %d, %v)",
							name, id, post, a.ParentOf(post), as, aok, b.ParentOf(post), bs, bok)
					}
					if s.ParentOf(post) != b.ParentOf(post) || ss != bs || sok != bok {
						t.Fatalf("%s doc %d node %d: view (%d, %d, %v) vs record (%d, %d, %v)",
							name, id, post, s.ParentOf(post), ss, sok, b.ParentOf(post), bs, bok)
					}
				}
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// mixDocs is the benchmark's MIX corpus: datagen DBLP ∪ SWISSPROT ∪
// TREEBANK at scale 2, seed 1.
func mixDocs(t testing.TB) []*xmltree.Document {
	t.Helper()
	var docs []*xmltree.Document
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, ds.Docs...)
	}
	return docs
}

// postingCount counts the postings tree's entries.
func postingCount(t testing.TB, ix *Index) int {
	t.Helper()
	n := 0
	err := ix.postings.ScanPostings(nil, nil, true, true, func(uint32, uint64, uint64, uint32) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// treeLeaves is the leaf count of the postings and Docid trees: what a
// whole-index tier holds, one image a leaf.
func treeLeaves(t testing.TB, ix *Index) int {
	t.Helper()
	n := 0
	for _, tree := range []*btree.Tree{ix.postings, ix.docid} {
		sh, err := tree.Shape()
		if err != nil {
			t.Fatal(err)
		}
		n += sh.Pages[len(sh.Pages)-1]
	}
	return n
}

// checkWholeTier fails unless ix's tier holds every leaf of the postings and
// Docid trees and has evicted none.
func checkWholeTier(t testing.TB, stage string, ix *Index) {
	t.Helper()
	if st, leaves := ix.HotStats().Tier, treeLeaves(t, ix); st.Items != leaves || st.Evictions != 0 {
		t.Fatalf("after %s: %d leaves resident (%d evicted), want the trees' %d and none", stage, st.Items, st.Evictions, leaves)
	}
}

// TestPreloadCountsNoLookups: filling the tier is not reading it. After a
// build and after Open with a whole-index budget, every leaf of the postings
// and Docid trees is resident — 51 on MIX — and the tier has counted no hit
// and no miss.
func TestPreloadCountsNoLookups(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Extended: true, HotBudget: 64 << 20}
	built := opts
	built.Dir = dir
	ix, err := Build(mixDocs(t), built)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, ix *Index) {
		st := ix.HotStats().Tier
		if st.Hits != 0 || st.Misses != 0 {
			t.Errorf("after %s: %d hits and %d misses before any query, want 0 and 0", stage, st.Hits, st.Misses)
		}
		checkWholeTier(t, stage, ix)
		if st.Items != 51 {
			t.Errorf("after %s: %d leaves resident, want MIX's 51", stage, st.Items)
		}
	}
	check("Build", ix)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	check("Open", ix)
}

// TestHotTierBytesPerPosting bounds what the tier charges on the benchmark's
// MIX index: its 96,004 postings in 48 postings leaves and its 6,000 docid
// entries in 3 Docid leaves, whole pages and per-leaf bookkeeping together,
// come to 429,420 B, 4.47 B a posting (the per-symbol lists it held before
// took 7.02 B, and raw 20-byte entries 23.4). The bound leaves 10 %
// headroom.
func TestHotTierBytesPerPosting(t *testing.T) {
	ix, err := Build(mixDocs(t), Options{Extended: true, HotBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	checkWholeTier(t, "Build", ix)
	postings, st := postingCount(t, ix), ix.HotStats().Tier
	per := float64(st.Bytes) / float64(postings)
	t.Logf("%d postings: tier charges %d B for %d leaves, %.2f B a posting", postings, st.Bytes, st.Items, per)
	if per > 4.9 {
		t.Errorf("the tier charges %.2f B a posting, want ≤ 4.9", per)
	}
}
