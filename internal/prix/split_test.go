package prix

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/twig"
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

func TestSplitUnordered(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(0, `(a (c (x)) (b (y)))`)
	ix := build(t, true, doc)
	q := twig.MustParse(`//a[.//b]//c`) // ordered: b before c fails; unordered matches
	for unordered, want := range map[bool]int{false: 0, true: 1} {
		ms, _, err := ix.Match(q, MatchOptions{Unordered: unordered})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != want {
			t.Errorf("unordered=%v: %d matches, want %d", unordered, len(ms), want)
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

// randomTwig draws a twig of 2–7 nodes over the corpus alphabet: a node gets
// up to three children, so branches nest; element edges are / (half), //
// (a third) or /*/, value leaves hang by /, and the root is anchored now and
// then. It goes through the parser, so it is a twig Parse produces.
func randomTwig(rng *rand.Rand) *twig.Query {
	labels, values := []string{"a", "b", "c", "d"}, []string{"v1", "v2"}
	root := &twig.Node{Label: labels[rng.Intn(len(labels))]}
	nodes := []*twig.Node{root}
	for size, tries := 2+rng.Intn(6), 0; len(nodes) < size && tries < 50; tries++ {
		p := nodes[rng.Intn(len(nodes))]
		if p.IsValue || len(p.Children) == 3 {
			continue
		}
		n := &twig.Node{Label: values[rng.Intn(len(values))], IsValue: true, Edge: twig.Edge{Min: 1, Max: 1}}
		if rng.Intn(5) > 0 {
			n = &twig.Node{Label: labels[rng.Intn(len(labels))], Edge: twig.Edge{Min: 1, Max: 1}}
			switch r := rng.Intn(6); {
			case r < 2:
				n.Edge.Max = twig.Unbounded
			case r == 2:
				n.Edge = twig.Edge{Min: 2, Max: 2}
			}
		}
		p.Children = append(p.Children, n)
		nodes = append(nodes, n)
	}
	q := &twig.Query{Root: root, RootEdge: twig.Edge{Min: 1, Max: twig.Unbounded}}
	if rng.Intn(6) == 0 {
		q.RootEdge.Max = 1
	}
	return twig.MustParse(q.String())
}

// oracleDocs is a seeded random corpus over the twigs' alphabet.
func oracleDocs(rng *rand.Rand) []*xmltree.Document {
	var docs []*xmltree.Document
	for d := 0; d < 6; d++ {
		docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
			Nodes: 3 + rng.Intn(25), Alphabet: []string{"a", "b", "c", "d"},
			MaxFanout: 4, ValueProb: 0.3, Values: []string{"v1", "v2"},
		}))
	}
	return docs
}

// hasBranches reports whether some node of n's subtree has two or more
// children, where unordered semantics differ from ordered.
func hasBranches(n *twig.Node) bool {
	if len(n.Children) >= 2 {
		return true
	}
	for _, c := range n.Children {
		if hasBranches(c) {
			return true
		}
	}
	return false
}

// FuzzMatchOracle holds Match to the brute-force oracle over seeded random
// corpora: an EPIndex and an RPIndex, Parallelism 1 and 4, ordered and (for
// twigs with branches) unordered. An input is a seed, which draws the corpus,
// and a twig; an empty twig draws eight twigs from the seed instead. An
// RPIndex may refuse a twig only for a non-exact edge directly above a leaf,
// and must then.
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
				qs = append(qs, randomTwig(rng))
			}
		} else if q, err := twig.Parse(src); err != nil || q.Size() > 8 {
			t.Skip() // keep the oracle and the arrangements bounded
		} else {
			qs = append(qs, q)
		}
		ep, rp := build(t, true, docs...), build(t, false, docs...)
		defer ep.Close()
		defer rp.Close()
		for _, q := range qs {
			want := map[bool]int{false: twig.CountBruteForce(q, docs)}
			if hasBranches(q.Root) {
				want[true] = bruteUnorderedCount(q, docs)
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
		}
	})
}
