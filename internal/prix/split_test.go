package prix

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/hot"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/twig"
	"repro/internal/twig/twigtest"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func TestRiskOfFalseDismissal(t *testing.T) {
	cases := map[string]bool{
		`//a/b`:                  false,
		`//a[./b]/c`:             false,
		`//a[.//b]/c`:            false,
		`//a[.//b]//c`:           true,
		`//a[.//b][.//c]`:        true,
		`//a/*/b//c`:             false, // a chain: one non-exact edge a node
		`//a//b//c`:              false,
		`//a[./b//d][./c]`:       false,
		`//a[./b//d][./c//e]`:    false, // nested: each node has one
		`//a[.//b//d]/c//e`:      false,
		`//a[./b[.//d]//e]/c`:    true, // the split node is b, not the root
		`//a[.//b[.//d]//e]//c`:  true, // two split nodes
		`//a[./*/b][.//c]/d`:     true, // a star edge is not exact either
		`/a[.//b]//c`:            true,
		`//a[.//b="v"]/c`:        false,
		`//a[./b="v"][./c="w"]`:  false,
		`//a[.//b/c][.//d/e]//f`: true,
	}
	for src, want := range cases {
		if got := RiskOfFalseDismissal(twig.MustParse(src)); got != want {
			t.Errorf("RiskOfFalseDismissal(%s) = %v, want %v", src, got, want)
		}
	}
	// The benchmark drops generated queries of the risk class, so on the
	// planted templates it must hold exactly where it always did: Q6.
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range ds.Queries {
			if got, want := RiskOfFalseDismissal(qs.Query()), qs.ID == "Q6"; got != want {
				t.Errorf("%s %s: RiskOfFalseDismissal = %v, want %v", qs.ID, qs.XPath, got, want)
			}
		}
	}
}

// interleaved is DESIGN.md's counterexample: below the outer a, the images
// of b and c interleave inside one child subtree, so one subsequence has no
// room for both proxies.
func interleaved() *xmltree.Document {
	return xmltreetest.MustFromSExpr(0,
		`(a (a (c (d) (c (d (a (a (c) (c "v1")))) (d)) (b "v2")) (d (b "v2") (c "v2"))) (d (c)) (b (d)) (d "v1"))`)
}

// The descent alone misses occurrences of a twig with two // branches under
// one node; Match, which splits it, finds every one.
func TestSplitClosesWildcardCorner(t *testing.T) {
	doc := interleaved()
	ep := build(t, true, doc)
	rp := build(t, false, doc)
	for _, src := range []string{`//a[.//b]//c`, `//a[.//b="v2"]//c/d`, `//a[.//d][.//b]//c`} {
		q := twig.MustParse(src)
		want := twig.CountBruteForce(q, []*xmltree.Document{doc})
		direct, err := ep.matchOrdered(q, MatchOptions{}, new(QueryStats), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if src == `//a[.//b]//c` && len(direct) >= want {
			t.Errorf("%s: the descent alone finds %d of %d: the document no longer shows the corner", src, len(direct), want)
		}
		for name, ix := range map[string]*Index{"ep": ep, "rp": rp} {
			ms, _, err := ix.Match(q, MatchOptions{})
			if errors.Is(err, ErrNeedsExtendedIndex) && ix == rp && wildcardLeaf(q.Root) != nil {
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", name, src, err)
			}
			if len(ms) != want {
				t.Errorf("%s %s: Match = %d, brute force %d", name, src, len(ms), want)
			}
			for _, m := range ms {
				if m.Positions != nil || m.Root != m.Images[len(m.Images)-1] {
					t.Errorf("%s %s: joined match %+v: want nil positions and the root's image as Root", name, src, m)
				}
			}
		}
	}
}

// Unordered, a twig splits at every node with two or more children, into
// root-to-leaf parts. Seven branches are one join of seven parts, where
// §5.7's arrangements would be 5,040 walks. The join holds each part's branch
// to every earlier part's, not only to the previous one's: two branches may
// neither share an image nor nest, even with a third between them.
func TestSplitUnordered(t *testing.T) {
	for _, c := range []struct {
		doc, src           string
		ordered, unordered int
	}{
		{`(a (c (x)) (b (y)))`, `//a[.//b]//c`, 0, 1},
		{`(a (b) (c) (d) (e) (f) (g) (h))`, `//a[./h][./g][./f][./e][./d][./c][./b]`, 0, 1},
		{`(a (b) (c))`, `//a[./b][./c][./b]`, 0, 0},
		{`(a (b) (c) (b))`, `//a[./b][./c][./b]`, 1, 1},
		{`(a (b (d)) (c))`, `//a[.//b][./c][.//d]`, 0, 0},
		// ./b and .//b can trade the two b images: one image set.
		{`(a (b) (b))`, `//a[./b][.//b]`, 1, 1},
	} {
		doc := xmltreetest.MustFromSExpr(0, c.doc)
		q := twig.MustParse(c.src)
		for _, extended := range []bool{true, false} {
			if !extended && wildcardLeaf(q.Root) != nil {
				continue
			}
			ix := build(t, extended, doc)
			for unordered, want := range map[bool]int{false: c.ordered, true: c.unordered} {
				ms, _, err := ix.Match(q, MatchOptions{Unordered: unordered})
				if err != nil {
					t.Fatalf("%s extended=%v unordered=%v: %v", c.src, extended, unordered, err)
				}
				if len(ms) != want {
					t.Errorf("%s on %s extended=%v unordered=%v: %d matches, want %d",
						c.src, c.doc, extended, unordered, len(ms), want)
				}
			}
		}
	}
}

// Identical unordered branches are joined in postorder, so k of them over n
// matching children build the C(n,k) image sets and not their k! orders:
// six ./b branches over twelve b children are 924 answers, where the k!
// orders would be 665,280 rows of a tens-of-megabytes join.
func TestSplitUnorderedIdenticalBranches(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(0, `(a (b) (b) (b) (b) (b) (b) (b) (b) (b) (b) (b) (b))`)
	q := twig.MustParse(`//a[./b][./b][./b][./b][./b][./b]`)
	for _, extended := range []bool{true, false} {
		ix := build(t, extended, doc)
		opts := MatchOptions{Unordered: true, Parallelism: 1}
		if _, _, err := ix.Match(q, opts); err != nil { // warms the pools
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ms, _, err := ix.Match(q, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 924 {
			t.Errorf("extended=%v: %d matches, want C(12,6) = 924", extended, len(ms))
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 4<<20 {
			t.Errorf("extended=%v: the query allocates %d B, want at most 4 MiB", extended, b)
		}
	}
}

// A split query's trace has one part span per part, each with the walk's
// own filter and refine spans, and charges the join to the reduce stage.
func TestSplitTracesParts(t *testing.T) {
	ix := build(t, true, interleaved())
	tr := obs.NewTrace("q")
	if _, _, err := ix.Match(twig.MustParse(`//a[.//b]//c`), MatchOptions{Parallelism: 1, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	match := tr.Root().Children()[0]
	var keys []string
	for _, c := range match.Children() {
		if c.Name() != "part" {
			t.Errorf("match span child %s(%s), want only parts", c.Name(), c.Key())
			continue
		}
		keys = append(keys, c.Key())
		var names []string
		for _, g := range c.Children() {
			names = append(names, g.Name())
		}
		if fmt.Sprint(names) != "[filter refine]" {
			t.Errorf("part(%s) children %v, want [filter refine]", c.Key(), names)
		}
	}
	if fmt.Sprint(keys) != fmt.Sprint([]string{obs.OrdinalKey(0), obs.OrdinalKey(1)}) {
		t.Errorf("part keys %v, want two ordinals", keys)
	}
	if match.StageCount(obs.StageReduce) == 0 {
		t.Error("the join is not charged to the reduce stage")
	}
	// The tree is read after Match has pooled the parts' twigs, and after
	// another split has reused them.
	if _, _, err := ix.Match(twig.MustParse(`//a[.//d]//b`), MatchOptions{}); err != nil {
		t.Fatal(err)
	}
	var got []any
	for _, c := range tr.Tree().Children[0].Children {
		got = append(got, c.Attrs["query"])
	}
	if want := []any{`//a//b`, `//a//c`}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("part queries %v, want %v", got, want)
	}
}

// oracleDocs is a seeded random corpus over the twigs' alphabet.
func oracleDocs(rng *rand.Rand) []*xmltree.Document { return moreOracleDocs(rng, nil, 6) }

// moreOracleDocs appends n seeded random documents over the twigs' alphabet
// to docs, numbered on from them.
func moreOracleDocs(rng *rand.Rand, docs []*xmltree.Document, n int) []*xmltree.Document {
	for d := len(docs); n > 0; d, n = d+1, n-1 {
		docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
			Nodes: 3 + rng.Intn(25), Alphabet: []string{"a", "b", "c", "d"},
			MaxFanout: 4, ValueProb: 0.3, Values: []string{"v1", "v2"},
		}))
	}
	return docs
}

// mixedSourceIndex builds an EPIndex over docs behind a pool of eight
// frames, with a hot tier of about half its leaves: a query's level cursors
// then mix resident and paged sources, the tier admits and evicts under the
// walk, and on a corpus of several leaves a tree windows cross leaf
// boundaries.
func mixedSourceIndex(t testing.TB, docs []*xmltree.Document) *Index {
	t.Helper()
	ix, err := Build(docs, Options{Extended: true, BufferPoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix.hot = hot.NewTier(int64(max(treeLeaves(t, ix)/2, 1)) * (pager.PageDataSize + 512))
	ix.PreloadHot()
	return ix
}

// FuzzMatchOracle holds Match to the brute-force oracle over seeded random
// corpora: an EPIndex and an RPIndex, Parallelism 1 and 4, ordered and (for
// twigs with branches) unordered; and an EPIndex over the corpus and 100
// more documents — two postings leaves and a Docid leaf — behind a pool of
// eight frames and a tier of one leaf (mixedSourceIndex), where the level
// cursors mix resident and paged leaves and cross leaf boundaries. An input is
// a seed, which draws the corpora, and a twig; an empty twig draws eight
// twigs from the seed instead. An RPIndex may refuse a twig only for a
// non-exact edge directly above a leaf, and must then.
func FuzzMatchOracle(f *testing.F) {
	for _, sh := range diffShapes {
		f.Add(int64(1), sh.src)
	}
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed, "")
	}
	f.Fuzz(func(t *testing.T, seed int64, src string) {
		rng := rand.New(rand.NewSource(seed))
		docs := oracleDocs(rng)
		var qs []*twig.Query
		if src == "" {
			for k := 0; k < 8; k++ {
				qs = append(qs, twigtest.RandomTwig(rng))
			}
		} else if q, err := twig.Parse(src); err != nil || q.Size() > 8 {
			t.Skip() // keep the oracle and the arrangements bounded
		} else {
			qs = append(qs, q)
		}
		ep, rp := build(t, true, docs...), build(t, false, docs...)
		defer ep.Close()
		defer rp.Close()
		many := moreOracleDocs(rand.New(rand.NewSource(seed)), slices.Clone(docs), 100)
		mixed := mixedSourceIndex(t, many)
		defer mixed.Close()
		for _, q := range qs {
			want := map[bool]int{false: twig.CountBruteForce(q, docs)}
			if twigtest.HasBranches(q.Root) {
				want[true] = twigtest.UnorderedCount(q, docs)
			}
			for _, ix := range []*Index{ep, rp} {
				refuse := !ix.Extended() && wildcardLeaf(q.Root) != nil
				for unordered, n := range want {
					for _, par := range []int{1, 4} {
						ms, _, err := ix.Match(q, MatchOptions{WarmCache: true, Unordered: unordered, Parallelism: par})
						if refuse != errors.Is(err, ErrNeedsExtendedIndex) || err != nil && !refuse {
							t.Fatalf("seed %d extended=%v %s: err %v, refusal expected %v", seed, ix.Extended(), q, err, refuse)
						}
						if !refuse && len(ms) != n {
							t.Fatalf("seed %d extended=%v unordered=%v par=%d %s: %d matches, oracle %d",
								seed, ix.Extended(), unordered, par, q, len(ms), n)
						}
					}
				}
			}
			for unordered := range want {
				n := twig.CountBruteForce(q, many)
				if unordered {
					n = twigtest.UnorderedCount(q, many)
				}
				for _, par := range []int{1, 4} {
					ms, _, err := mixed.Match(q, MatchOptions{WarmCache: true, Unordered: unordered, Parallelism: par})
					if err != nil || len(ms) != n {
						t.Fatalf("seed %d mixed sources unordered=%v par=%d %s: %d matches, %v; oracle %d",
							seed, unordered, par, q, len(ms), err, n)
					}
				}
			}
		}
	})
}
