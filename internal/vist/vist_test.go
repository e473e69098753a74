package vist

import (
	"math/rand"
	"testing"

	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func buildIx(t testing.TB, docs ...*xmltree.Document) *Index {
	t.Helper()
	ix, err := Build(docs, pager.NewBufferPool(pager.NewMemFile(), 256), &docstore.Dict{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func candidates(t testing.TB, ix *Index, q string) []uint32 {
	t.Helper()
	out, _, err := ix.Match(twig.MustParse(q))
	if err != nil {
		t.Fatalf("Match(%s): %v", q, err)
	}
	return out
}

func TestFigure1bFalseAlarm(t *testing.T) {
	// The PRIX paper's Figure 1(b): Q occurs only in Doc1, but ViST's
	// subsequence matching also reports Doc2 — a false alarm we reproduce.
	doc1 := xmltreetest.MustFromSExpr(0, `(B (A) (D))`)
	doc2 := xmltreetest.MustFromSExpr(1, `(B (A (D)))`)
	ix := buildIx(t, doc1, doc2)
	got := candidates(t, ix, `//B[./A]/D`)
	if len(got) != 2 {
		t.Fatalf("candidates = %v, want both docs (false alarm included)", got)
	}
}

func TestTrueMatchesAlwaysIncluded(t *testing.T) {
	// No false dismissals: every document with a brute-force match must be
	// a ViST candidate.
	rng := rand.New(rand.NewSource(13))
	queries := []string{
		`//a/b`, `//a//b`, `//a[./b]/c`, `//a[./b][./c]/d`, `//a/b/c`,
		`//a[.//b]//c`, `//a/*/b`, `//a[./b="v1"]/c`, `/a/b`, `//d//d`,
	}
	for trial := 0; trial < 20; trial++ {
		var docs []*xmltree.Document
		for d := 0; d < 6; d++ {
			docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
				Nodes:     3 + rng.Intn(20),
				Alphabet:  []string{"a", "b", "c", "d"},
				MaxFanout: 4,
				ValueProb: 0.3,
				Values:    []string{"v1", "v2"},
			}))
		}
		ix := buildIx(t, docs...)
		for _, qs := range queries {
			q := twig.MustParse(qs)
			want := map[uint32]bool{}
			for _, d := range docs {
				if len(twig.MatchBruteForce(q, d)) > 0 {
					want[uint32(d.ID)] = true
				}
			}
			got := map[uint32]bool{}
			for _, d := range candidates(t, ix, qs) {
				got[d] = true
			}
			for d := range want {
				if !got[d] {
					t.Fatalf("trial %d query %s: doc %d dismissed (doc: %s)",
						trial, qs, d, docs[d])
				}
			}
		}
	}
}

func TestExactAnchoredQueries(t *testing.T) {
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)))`),
		xmltreetest.MustFromSExpr(1, `(a (x (b (c))))`),
		xmltreetest.MustFromSExpr(2, `(b (c))`),
	}
	ix := buildIx(t, docs...)
	got := candidates(t, ix, `/a/b/c`)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("/a/b/c candidates = %v, want [0]", got)
	}
	got = candidates(t, ix, `//a//b/c`)
	if len(got) != 2 {
		t.Errorf("//a//b/c candidates = %v, want docs 0 and 1", got)
	}
}

func TestWildcardScansWholeSymbol(t *testing.T) {
	// Leading-// queries must examine every key of the symbol — the
	// behaviour the paper measures on TREEBANK.
	var docs []*xmltree.Document
	for i := 0; i < 50; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(S (NP (SYM)) (VP (NP (x))))`))
	}
	ix := buildIx(t, docs...)
	_, stats, err := ix.Match(twig.MustParse(`//S//NP/SYM`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeysExamined == 0 || stats.RangeQueries == 0 {
		t.Errorf("stats = %+v", stats)
	}
	// Every document shares one trie path, so candidate count is 50.
	if stats.Candidates != 50 {
		t.Errorf("candidates = %d, want 50", stats.Candidates)
	}
}

func TestAbsentLabel(t *testing.T) {
	ix := buildIx(t, xmltreetest.MustFromSExpr(0, `(a (b))`))
	got := candidates(t, ix, `//zz/b`)
	if len(got) != 0 {
		t.Errorf("candidates = %v", got)
	}
}

func TestValueNamespacing(t *testing.T) {
	ix := buildIx(t, xmltreetest.MustFromSExpr(0, `(a (b "b"))`))
	// Element b has a value child "b": value predicate must match, element
	// chain b/b must not.
	if got := candidates(t, ix, `//a[./b="b"]`); len(got) != 1 {
		t.Errorf("value query candidates = %v", got)
	}
	if got := candidates(t, ix, `//a/b/b`); len(got) != 0 {
		t.Errorf("element chain matched a value: %v", got)
	}
}

func TestStatsPopulated(t *testing.T) {
	var docs []*xmltree.Document
	for i := 0; i < 30; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c)))`))
	}
	ix := buildIx(t, docs...)
	_, stats, err := ix.Match(twig.MustParse(`//a/b/c`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesRead == 0 || stats.Elapsed <= 0 || stats.Candidates != 30 {
		t.Errorf("stats = %+v", stats)
	}
}
