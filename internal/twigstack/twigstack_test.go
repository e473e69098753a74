package twigstack

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func buildStore(t testing.TB, docs ...*xmltree.Document) *Store {
	t.Helper()
	s, err := Build(docs, pager.NewBufferPool(pager.NewMemFile(), 256), &docstore.Dict{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func count(t testing.TB, s *Store, q string, algo Algorithm) int {
	t.Helper()
	n, _, err := s.Match(twig.MustParse(q), algo)
	if err != nil {
		t.Fatalf("%v Match(%s): %v", algo, q, err)
	}
	return n
}

func TestBasicTwigMatch(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(0, `(a (b (c)) (d))`)
	s := buildStore(t, doc)
	for _, algo := range []Algorithm{TwigStack, TwigStackXB} {
		if n := count(t, s, `//a[./b/c]/d`, algo); n != 1 {
			t.Errorf("%v: matches = %d, want 1", algo, n)
		}
		if n := count(t, s, `//a[./c]/d`, algo); n != 0 {
			t.Errorf("%v: //a[./c]/d = %d, want 0 (c not a child)", algo, n)
		}
		if n := count(t, s, `//a[.//c]/d`, algo); n != 1 {
			t.Errorf("%v: //a[.//c]/d = %d, want 1", algo, n)
		}
	}
}

func TestParentChildSubOptimality(t *testing.T) {
	// §2's example: P common ancestor (not parent) of Q and R. The stack
	// phase produces partial path solutions that the merge step discards;
	// the final count must still be 0.
	doc := xmltreetest.MustFromSExpr(0, `(P (x (Q) (R)))`)
	s := buildStore(t, doc)
	for _, algo := range []Algorithm{TwigStack, TwigStackXB} {
		n, stats, err := s.Match(twig.MustParse(`//P[./Q]/R`), algo)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("%v: matches = %d, want 0", algo, n)
		}
		if stats.PathSolutions == 0 {
			t.Errorf("%v: expected wasted path solutions (sub-optimality), got none", algo)
		}
	}
}

func TestPaperTreeAgainstOracle(t *testing.T) {
	doc := xmltreetest.PaperTree(0)
	s := buildStore(t, doc)
	queries := []string{
		`//A[./B/C]/D/E/F`, `//A//F`, `//B/C/D`, `//A[./C]/B`,
		`//E/F`, `//D//G`, `//A/D/E`,
	}
	for _, qs := range queries {
		want := len(twig.MatchBruteForce(twig.MustParse(qs), doc))
		for _, algo := range []Algorithm{TwigStack, TwigStackXB} {
			if n := count(t, s, qs, algo); n != want {
				t.Errorf("%v: %s = %d, want %d", algo, qs, n, want)
			}
		}
	}
}

func TestValuesAndAnchoring(t *testing.T) {
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(inproceedings (author "Jim Gray") (year "1990"))`),
		xmltreetest.MustFromSExpr(1, `(inproceedings (author "Jim Gray") (year "1991"))`),
		xmltreetest.MustFromSExpr(2, `(article (author "Jim Gray") (year "1990"))`),
	}
	s := buildStore(t, docs...)
	for _, algo := range []Algorithm{TwigStack, TwigStackXB} {
		if n := count(t, s, `//inproceedings[./author="Jim Gray"][./year="1990"]`, algo); n != 1 {
			t.Errorf("%v: Q1-style = %d, want 1", algo, n)
		}
		if n := count(t, s, `/article/author`, algo); n != 1 {
			t.Errorf("%v: anchored = %d, want 1", algo, n)
		}
		if n := count(t, s, `/author`, algo); n != 0 {
			t.Errorf("%v: /author = %d, want 0", algo, n)
		}
		if n := count(t, s, `//inproceedings[./author="Nobody"]`, algo); n != 0 {
			t.Errorf("%v: absent value = %d, want 0", algo, n)
		}
	}
}

func TestMultiDocumentIsolation(t *testing.T) {
	// a in doc0, b in doc1: //a//b must not match across documents.
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (x))`),
		xmltreetest.MustFromSExpr(1, `(r (b))`),
	}
	s := buildStore(t, docs...)
	for _, algo := range []Algorithm{TwigStack, TwigStackXB} {
		if n := count(t, s, `//a//b`, algo); n != 0 {
			t.Errorf("%v: cross-document match: %d", algo, n)
		}
	}
}

func TestAgreesWithBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries := []string{
		`//a/b`, `//a//b`, `//a[./b]/c`, `//a[./b][./c]/d`, `//a/b/c`,
		`//a[.//b]//c`, `//a/*/b`, `//a[./b/c]/d`, `/a/b`, `//b[./a]/a`,
		`//a[./b="v1"]/c`, `//c[text()="v2"]`, `//a[./a]/a`, `//d//d`,
		`//b/*/*/c`, `//a[./b][./b]`, `//a[./c//d]/b`, `//a[.//b]/c`,
	}
	for trial := 0; trial < 25; trial++ {
		var docs []*xmltree.Document
		for d := 0; d < 6; d++ {
			docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
				Nodes:     3 + rng.Intn(22),
				Alphabet:  []string{"a", "b", "c", "d"},
				MaxFanout: 4,
				ValueProb: 0.4,
				Values:    []string{"v1", "v2"},
			}))
		}
		s := buildStore(t, docs...)
		for _, qs := range queries {
			q := twig.MustParse(qs)
			want := twig.CountBruteForce(q, docs)
			for _, algo := range []Algorithm{TwigStack, TwigStackXB} {
				got, _, err := s.Match(q, algo)
				if err != nil {
					t.Fatalf("trial %d %v %s: %v", trial, algo, qs, err)
				}
				if got != want {
					for _, d := range docs {
						t.Logf("doc %d: %s", d.ID, d)
					}
					t.Fatalf("trial %d %v: %s = %d, brute force %d", trial, algo, qs, got, want)
				}
			}
		}
	}
}

func TestXBSkipsRegions(t *testing.T) {
	// Long filler streams with one clustered match region at the end: the
	// XB variant must skip whole regions the plain variant scans.
	var docs []*xmltree.Document
	for i := 0; i < 4000; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(r (p (f)) (p (f)))`))
	}
	docs = append(docs, xmltreetest.MustFromSExpr(4000, `(r (p (needle)))`))
	s := buildStore(t, docs...)
	q := `//p/needle`
	nPlain, statPlain, err := s.Match(twig.MustParse(q), TwigStack)
	if err != nil {
		t.Fatal(err)
	}
	nXB, statXB, err := s.Match(twig.MustParse(q), TwigStackXB)
	if err != nil {
		t.Fatal(err)
	}
	if nPlain != 1 || nXB != 1 {
		t.Fatalf("counts: plain=%d xb=%d, want 1", nPlain, nXB)
	}
	if statXB.RegionsSkipped == 0 {
		t.Error("XB skipped no regions")
	}
	if statXB.PagesRead >= statPlain.PagesRead {
		t.Errorf("XB pages (%d) not fewer than plain (%d)", statXB.PagesRead, statPlain.PagesRead)
	}
	if statXB.ElementsScanned >= statPlain.ElementsScanned {
		t.Errorf("XB scanned %d elements, plain %d", statXB.ElementsScanned, statPlain.ElementsScanned)
	}
}

func TestPathStack(t *testing.T) {
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)) (b (x)))`),
		xmltreetest.MustFromSExpr(1, `(a (b (c (b (c)))))`),
	}
	s := buildStore(t, docs...)
	q := twig.MustParse(`//a//b/c`)
	want := twig.CountBruteForce(q, docs)
	n, _, err := s.PathStack(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Errorf("PathStack = %d, want %d", n, want)
	}
	if _, _, err := s.PathStack(twig.MustParse(`//a[./b]/c`)); err == nil {
		t.Error("PathStack accepted a branching query")
	}
}

func TestAbsentLabel(t *testing.T) {
	s := buildStore(t, xmltreetest.MustFromSExpr(0, `(a (b))`))
	for _, algo := range []Algorithm{TwigStack, TwigStackXB} {
		n, stats, err := s.Match(twig.MustParse(`//zz/b`), algo)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 || stats.ElementsScanned != 0 {
			t.Errorf("%v: absent label scanned %d", algo, stats.ElementsScanned)
		}
	}
}

func TestStreamLen(t *testing.T) {
	s := buildStore(t,
		xmltreetest.MustFromSExpr(0, `(a (b "v") (b "v"))`),
	)
	if n := s.StreamLen("b", false); n != 2 {
		t.Errorf("StreamLen(b) = %d", n)
	}
	if n := s.StreamLen("v", true); n != 2 {
		t.Errorf("StreamLen(v value) = %d", n)
	}
	if n := s.StreamLen("v", false); n != 0 {
		t.Errorf("StreamLen(v elem) = %d, want 0 (namespacing)", n)
	}
	if n := s.StreamLen("zz", false); n != 0 {
		t.Errorf("StreamLen(zz) = %d", n)
	}
}

func BenchmarkTwigStackVsXB(b *testing.B) {
	var docs []*xmltree.Document
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		docs = append(docs, xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes: 20, Alphabet: []string{"a", "b", "c", "d", "e", "f", "g", "h"}, MaxFanout: 4,
		}))
	}
	s, err := Build(docs, pager.NewBufferPool(pager.NewMemFile(), 2000), &docstore.Dict{})
	if err != nil {
		b.Fatal(err)
	}
	q := twig.MustParse(`//a[./b]/c`)
	for _, algo := range []Algorithm{TwigStack, TwigStackXB} {
		b.Run(fmt.Sprint(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Match(q, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestBuildRejectsNonEmptyFile(t *testing.T) {
	mem := pager.NewMemFile()
	if _, err := mem.Allocate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(nil, pager.NewBufferPool(mem, 8), &docstore.Dict{}); err == nil {
		t.Error("Build over non-empty file accepted")
	}
}

// StreamLen returns the number of instances of a label.
func (s *Store) StreamLen(label string, isValue bool) int {
	sym, ok := lookupSym(s.dict, label, isValue)
	if !ok {
		return 0
	}
	seg := s.segs[sym]
	if seg == nil {
		return 0
	}
	return seg.count
}
