package prix

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/docstore"
	"repro/internal/twig"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// residentSwissprot builds a SWISSPROT EPIndex whose hot tier holds every
// leaf of its postings and Docid trees, and returns it with the dataset's planted
// queries.
func residentSwissprot(tb testing.TB) (*Index, []datagen.QuerySpec) {
	tb.Helper()
	ds := datagen.SwissProt(1, 1)
	ix, err := Build(ds.Docs, Options{Extended: true, BufferPoolPages: 2000, HotBudget: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ix.Close() })
	checkWholeTier(tb, "Build", ix)
	return ix, ds.Queries
}

var residentOpts = MatchOptions{WarmCache: true, Parallelism: 1}

// TestResidentMatchAllocs guards the resident read path's allocation
// profile on the two planted SWISSPROT twigs with real descents: Q5 (75
// range queries, 5 candidates) cost 456 heap objects per Match and Q6 (398
// range queries, 158 candidates and matches) 4,281 before the descent
// resolved its level sources once per query, pooled its scratch and refined
// against the packed summaries in place (57 and 378 after that), both cost 17
// once surviving matches were staged in the scratch and left as one block,
// and both cost 3 — the QueryStats and the result's block and []Match — since
// the pattern is compiled into the scratch and a query walks without
// per-query slices around it or an emit closure: nothing is left per range query,
// per candidate, per match or for the plan. With a warmed MatchOptions.Into
// lending the answer's memory and holding the QueryStats both cost 0. Under
// the race detector sync.Pool sheds scratches, so only the old
// quarter-of-the-original bounds hold there.
func TestResidentMatchAllocs(t *testing.T) {
	ix, queries := residentSwissprot(t)
	into := NewMatchBuf()
	defer into.Release()
	for _, c := range []struct {
		i     int
		bound float64
		into  *MatchBuf
	}{{1, 456 / 4, nil}, {2, 4281 / 4, nil}, {1, 456 / 4, into}, {2, 4281 / 4, into}} {
		bound := c.bound
		if !raceEnabled {
			bound = 3
			if c.into != nil {
				bound = 0
			}
		}
		qs := queries[c.i]
		q := qs.Query()
		opts := residentOpts
		opts.Into = c.into
		run := func() {
			ms, stats, err := ix.Match(q, opts)
			if err != nil || len(ms) != qs.Want {
				t.Fatalf("%s: matches = %d, %v; want %d", qs.ID, len(ms), err, qs.Want)
			}
			if stats.PagesRead != 0 || stats.HotRecordHits != stats.RecordFetches || stats.HotPostingHits != stats.RangeQueries {
				t.Fatalf("%s left the tier: %+v", qs.ID, stats)
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got > bound {
			t.Errorf("%s, into a buffer %v: resident Match allocates %.0f objects per run, want <= %.0f",
				qs.ID, c.into != nil, got, bound)
		}
	}
}

// TestScratchIsolation runs queries from 8 goroutines at once (under -race
// -count=10 in CI), serial and parallel sharing the scratch pool, then proves
// nothing returned aliases pooled scratch: every scratch the pool will hand
// out is scribbled over — hit buffers, S and N, the record candidates are
// decoded into, the staged matches, the compiled pattern's slabs — and only
// then are the serial reference answers computed and the concurrent ones
// compared with them. Three read paths: resident (the descent reads the hot
// tier's packed lists and refinement the store's resident shapes and LPS, so
// no record is ever decoded), paged (every candidate is read into its
// walker's scratch), and AS OF reads of superseded images (GetAtLoc's route
// into the same scratch record).
func TestScratchIsolation(t *testing.T) {
	t.Run("resident", func(t *testing.T) {
		ix, specs := residentSwissprot(t)
		queries, want := specQueries(specs)
		scratchIsolation(t, 4, queries, want, func(q *twig.Query, par int) ([]Match, error) {
			ms, _, err := ix.Match(q, MatchOptions{WarmCache: true, Parallelism: par})
			return ms, err
		})
	})
	t.Run("paged", func(t *testing.T) {
		ix, specs := pagedSwissprot(t)
		queries, want := specQueries(specs)
		scratchIsolation(t, 4, queries, want, func(q *twig.Query, par int) ([]Match, error) {
			ms, stats, err := ix.Match(q, MatchOptions{WarmCache: true, Parallelism: par})
			if err == nil && stats.HotRecordHits != 0 {
				err = fmt.Errorf("paged index served %d records from a hot tier", stats.HotRecordHits)
			}
			return ms, err
		})
	})
	t.Run("asof", func(t *testing.T) {
		corpus := parallelCorpus()[:20]
		di := dynCorpusIndex(t, "", true, corpus)
		defer di.Close()
		updated := []int{1, 3, 5, 11, 17}
		for _, id := range updated {
			if _, err := di.Update(uint32(id), variantDoc(corpus[id], id)); err != nil {
				t.Fatalf("update %d: %v", id, err)
			}
		}
		// At version 1 only the first update has happened: the other four
		// documents are read from the superseded images their intervals
		// point back to.
		const asOf = 1
		for _, id := range updated[1:] {
			if iv, ok := di.ix.versions.At(uint32(id), asOf); !ok || iv.Loc.Zero() {
				t.Fatalf("doc %d at version %d: interval %+v (visible %v) does not point at an old image", id, asOf, iv, ok)
			}
		}
		queries := rpShapes()
		// One round: these twigs over random trees have candidates by the
		// hundred, and the suite runs ten times under the race detector. The
		// corpus is random, so no planted counts: the reference is the serial
		// answer, which must at least be non-empty somewhere.
		scratchIsolation(t, 1, queries, nil, func(q *twig.Query, par int) ([]Match, error) {
			ms, _, err := di.Match(q, MatchOptions{Parallelism: par, AsOf: asOf})
			return ms, err
		})
	})
}

// specQueries returns the planted queries and their planted match counts.
func specQueries(specs []datagen.QuerySpec) (qs []*twig.Query, want []int) {
	for _, s := range specs {
		qs, want = append(qs, s.Query()), append(want, s.Want)
	}
	return qs, want
}

// scratchIsolation is TestScratchIsolation's body for one read path: every
// goroutine runs the queries rounds times over. wantLen, when not nil, is the
// known match count of each query, which the serial reference must reproduce.
func scratchIsolation(t *testing.T, rounds int, queries []*twig.Query, wantLen []int, match func(q *twig.Query, par int) ([]Match, error)) {
	got := make([][][]Match, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([][]Match, len(queries))
			for round := 0; round < rounds; round++ {
				for i := range queries {
					i = (i + g) % len(queries)
					ms, err := match(queries[i], 1+(g+round)%3) // serial and parallel share the pool
					if err != nil {
						t.Errorf("%s: %v", queries[i], err)
						return
					}
					got[g][i] = ms
				}
			}
		}(g)
	}
	wg.Wait()
	// Take more scratches than the run can have left behind, poison them,
	// and put them back.
	var taken []*scratch
	for i := 0; i < 64; i++ {
		sc := getScratch()
		sc.levels(8)
		for _, hs := range sc.hits {
			for j := range hs[:cap(hs)] {
				hs[:cap(hs)][j] = hit{left: ^uint64(0), right: ^uint64(0), level: ^uint32(0)}
			}
		}
		for j := range sc.S[:cap(sc.S)] {
			sc.S[:cap(sc.S)][j], sc.N[:cap(sc.N)][j] = -7, -7
		}
		sc.rec.DocID, sc.rec.NumNodes = ^uint32(0), -7
		for j := range sc.rec.NPS[:cap(sc.rec.NPS)] {
			sc.rec.NPS[:cap(sc.rec.NPS)][j] = -7
		}
		for j := range sc.rec.LPS[:cap(sc.rec.LPS)] {
			sc.rec.LPS[:cap(sc.rec.LPS)][j] = ^vtrie.Symbol(0)
		}
		for j := range sc.rec.Leaves[:cap(sc.rec.Leaves)] {
			sc.rec.Leaves[:cap(sc.rec.Leaves)][j] = docstore.Leaf{Post: -7, Sym: ^vtrie.Symbol(0)}
		}
		for j := range sc.stage.ints[:cap(sc.stage.ints)] {
			sc.stage.ints[:cap(sc.stage.ints)][j] = -7
		}
		for j := range sc.stage.ids[:cap(sc.stage.ids)] {
			sc.stage.ids[:cap(sc.stage.ids)][j] = stagedID{docID: ^uint32(0), root: -7}
		}
		poisonPattern(&sc.pattern)
		taken = append(taken, sc)
	}
	for _, sc := range taken {
		putScratch(sc)
	}
	matches := 0
	for i, q := range queries {
		want, err := match(q, 1)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if wantLen != nil && len(want) != wantLen[i] {
			t.Fatalf("%s: serial reference has %d matches, want %d", q, len(want), wantLen[i])
		}
		matches += len(want)
		for g := range got {
			if !reflect.DeepEqual(got[g][i], want) {
				t.Errorf("goroutine %d %s: answers diverge from serial\n got %v\nwant %v", g, q, got[g][i], want)
			}
		}
	}
	if matches == 0 {
		t.Fatal("no query matched anything: nothing was compared")
	}
}

// poisonPattern scribbles over every slab of a pooled compiled pattern, to
// their capacity: the edges, the sequence, Doc.Nodes, the tree nodes they
// point into and the child-pointer windows those nodes' Children are cut
// from.
func poisonPattern(pat *twig.Pattern) {
	poison := &xmltree.Node{Label: "poison", Post: -7}
	edges := pat.Edges[:cap(pat.Edges)]
	for j := range edges {
		edges[j] = twig.Edge{Min: -7, Max: -7}
	}
	if pat.Seq != nil {
		labels, numbers := pat.Seq.Labels[:cap(pat.Seq.Labels)], pat.Seq.Numbers[:cap(pat.Seq.Numbers)]
		for j := range labels {
			labels[j] = "poison"
		}
		for j := range numbers {
			numbers[j] = -7
		}
	}
	if pat.Doc != nil {
		nodes := pat.Doc.Nodes[:cap(pat.Doc.Nodes)]
		for j, n := range nodes {
			if n == nil {
				continue
			}
			kids := n.Children[:cap(n.Children)]
			for k := range kids {
				kids[k] = poison
			}
			*n = xmltree.Node{Label: "poison", Parent: poison, Post: -7, Pre: -7, Left: -7, Right: -7, Level: -7}
			nodes[j] = poison
		}
	}
}

// BenchmarkMatchResident is the resident read path end to end below the
// server: every planted SWISSPROT query, hot tier fully loaded, serial; and
// heavyTreebank on the benchmark's MIX index.
func BenchmarkMatchResident(b *testing.B) {
	ix, queries := residentSwissprot(b)
	for _, qs := range queries {
		q := qs.Query()
		b.Run(qs.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ms, _, err := ix.Match(q, residentOpts)
				if err != nil || len(ms) != qs.Want {
					b.Fatalf("matches = %d, %v; want %d", len(ms), err, qs.Want)
				}
			}
		})
	}
	benchHeavyTreebank(b, Options{Extended: true, BufferPoolPages: 2000, HotBudget: 64 << 20})
}

// heavyTreebank is a twig of TREEBANK's ubiquitous tags: on the benchmark's
// MIX index it issues 16,020 range queries for two matches.
const heavyTreebank = `//S[./NP]/NN`

// benchHeavyTreebank runs heavyTreebank as a sub-benchmark on a MIX index
// built with opts.
func benchHeavyTreebank(b *testing.B, opts Options) {
	ix, err := Build(mixDocs(b), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	q := twig.MustParse(heavyTreebank)
	b.Run("TREEBANK-heavy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ms, st, err := ix.Match(q, residentOpts)
			if err != nil || len(ms) != 2 || st.RangeQueries != 16020 {
				b.Fatalf("%d matches, %v, %d range queries; want 2 and 16,020", len(ms), err, st.RangeQueries)
			}
		}
	})
}
