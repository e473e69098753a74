package prix

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/datagen"
	"repro/internal/twig"
	"repro/internal/vtrie"
)

// Tests of the level cursor (cursor.go): where it re-seeks, that a resident
// and a paged cursor take the same steps, and that it holds no pin between
// range queries.

// TestCursorReseeks drives one level's cursor through a planted symbol whose
// postings span four leaves or more, window by window, and checks each
// window's hits against the postings and the running re-seek count against
// the rule: a window that rises within the cursor's leaf, runs off its end,
// or starts in the leaf after it moves on; one that starts before the leaf
// (nested in an earlier window) or past the leaf after it goes back to the
// top. Resident and paged cursors count alike.
func TestCursorReseeks(t *testing.T) {
	docs := parallelCorpus()
	cold := build(t, true, docs...)
	hotIx := buildHot(t, true, 16<<20, docs...)
	defer cold.Close()
	defer hotIx.Close()
	sym := vtrie.Symbol(cold.store.Dict().Len() - 1)
	var planted []vtrie.Posting
	for i := uint64(1); i <= 8000; i++ {
		planted = append(planted, vtrie.Posting{Symbol: sym, Left: 10 * i, Right: 10*i + i*7919%100000, Level: uint32(i%1000 + 1)})
	}
	for _, ix := range []*Index{cold, hotIx} {
		plantPostings(t, ix, planted)
	}
	var model []hit
	lo, hi := symRange(sym)
	err := cold.postings.ScanPostings(nil, nil, true, true, func(s uint32, left, right uint64, level uint32) bool {
		if vtrie.Symbol(s) == sym {
			model = append(model, hit{left, right, level})
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// b[j] is the first Left of the symbol's (j+2)th leaf.
	var b []uint64
	err = cold.postings.LeavesNoFill(lo, false, func(_ []byte, _, lhi btree.LeafKey, last bool) bool {
		if !last && !hi.Less(lhi) {
			b = append(b, lhi.Left)
		}
		return !last && !hi.Less(lhi)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 3 || b[0] < 40 {
		t.Fatalf("the planted symbol spans %d leaf boundaries %v, want 3 or more", len(b), b)
	}
	windows := []struct {
		ql, qr  uint64
		reseeks int
		why     string
	}{
		{0, b[0] + 1, 0, "the first window places the cursor and runs into leaf 2"},
		{b[0] + 1, b[0] + 5, 0, "rises within leaf 2"},
		{1, 3, 1, "nested back into leaf 1"},
		{b[0] - 20, b[0] - 10, 1, "rises within leaf 1"},
		{b[1] + 1, b[1] + 3, 2, "starts past leaf 2, the leaf after leaf 1"},
		{b[0] + 2, b[0] + 4, 3, "nested back into leaf 2"},
		{b[0] + 6, b[1] + 1, 3, "rises within leaf 2 and runs into leaf 3"},
		{b[2] + 1, b[2] + 2, 3, "starts in leaf 4, the leaf after leaf 3"},
		{b[2] + 1, b[2] + 2, 3, "repeats within leaf 4"},
	}
	for _, ix := range []*Index{cold, hotIx} {
		p := &plan{levels: []levelSource{{tree: ix.postings, sym: sym}}, docids: ix.docid}
		sc := getScratch()
		sc.levels(1)
		sc.bind(p)
		var st QueryStats
		for k, w := range windows {
			got, err := scanLevel(ix, p, 0, w.ql, w.qr, &st, sc, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []hit
			for _, h := range model {
				if h.left > w.ql && h.left <= w.qr {
					want = append(want, h)
				}
			}
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Errorf("resident=%v window %d (%d, %d]: %d hits, want %d", sc.cursors[0].resident, k, w.ql, w.qr, len(got), len(want))
			}
			if st.Reseeks != w.reseeks {
				t.Errorf("resident=%v window %d (%d, %d], which %s: %d re-seeks so far, want %d",
					sc.cursors[0].resident, k, w.ql, w.qr, w.why, st.Reseeks, w.reseeks)
			}
		}
		if resident := ix == hotIx; sc.cursors[0].resident != resident || (st.HotPostingHits == len(windows)) != resident {
			t.Errorf("hot tier %v: cursor resident %v with %d of %d windows from the tier", resident, sc.cursors[0].resident, st.HotPostingHits, len(windows))
		}
		putScratch(sc)
	}
}

// TestNestedTwigReseeks: an a→b→a twig on TREEBANK (NP over PP over NP, a
// symbol repeated along its trie path) nests windows of one level inside
// earlier ones, so its cursors re-seek. The answer is the brute-force
// oracle's at Parallelism 1 and 4, and a resident and a paged index issue
// the same range queries and the same re-seeks.
func TestNestedTwigReseeks(t *testing.T) {
	ds := datagen.Treebank(2, 1)
	paged := build(t, true, ds.Docs...)
	resident := buildHot(t, true, 64<<20, ds.Docs...)
	defer paged.Close()
	defer resident.Close()
	q := twig.MustParse(`//NP/PP/NP`)
	want := twig.CountBruteForce(q, ds.Docs)
	var stats []*QueryStats
	for _, ix := range []*Index{paged, resident} {
		serial, st, err := ix.Match(q, MatchOptions{WarmCache: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		spawned, _, err := ix.Match(q, MatchOptions{WarmCache: true, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) != want || !reflect.DeepEqual(serial, spawned) {
			t.Fatalf("%d matches at Parallelism 1, %d at 4; oracle %d", len(serial), len(spawned), want)
		}
		stats = append(stats, st)
	}
	p, r := stats[0], stats[1]
	t.Logf("%s: %d range queries, %d re-seeks", q, p.RangeQueries, p.Reseeks)
	if p.Reseeks == 0 || p.Reseeks != r.Reseeks || p.RangeQueries != r.RangeQueries {
		t.Errorf("paged: %d range queries, %d re-seeks; resident: %d, %d; want equal, re-seeks above 0",
			p.RangeQueries, p.Reseeks, r.RangeQueries, r.Reseeks)
	}
	if r.HotPostingHits != r.RangeQueries || p.HotPostingHits != 0 {
		t.Errorf("resident index served %d of %d range queries from the tier, paged %d", r.HotPostingHits, r.RangeQueries, p.HotPostingHits)
	}
}

// TestSmallPoolConcurrentDeepQueries: a cursor copies its leaf out of the
// pool and holds no pin between range queries, so three concurrent queries
// of three to six levels each run through a four-frame pool — one pin a
// walker at a time — and answer exactly what a roomy pool answers, never
// reporting the pool exhausted.
func TestSmallPoolConcurrentDeepQueries(t *testing.T) {
	ds := datagen.Treebank(1, 1)
	dir := t.TempDir()
	ix, err := Build(ds.Docs, Options{Extended: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{`//NP/PP/NP`, `//S[./NP]/NN`, `//NP[./PP/NP]/DT`, `//S/NP/S`, `//VP[./NP]/PP/NP`}
	want := map[string][]Match{}
	for _, src := range srcs {
		want[src] = mustMatch(t, ix, src, MatchOptions{WarmCache: true, Parallelism: 1})
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	small, err := Open(dir, Options{BufferPoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(srcs))
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range srcs {
					src := srcs[(k+g)%len(srcs)]
					ms, _, err := small.Match(twig.MustParse(src), MatchOptions{WarmCache: true, Parallelism: 1})
					if err != nil {
						errs <- fmt.Errorf("goroutine %d %s: %w", g, src, err)
						return
					}
					if !reflect.DeepEqual(ms, want[src]) {
						errs <- fmt.Errorf("goroutine %d %s: %d matches, want %d", g, src, len(ms), len(want[src]))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
