package twig

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func TestParseQ1(t *testing.T) {
	q := MustParse(`//inproceedings[./author="Jim Gray"][./year="1990"]`)
	if q.RootEdge.Max != Unbounded {
		t.Error("leading // lost")
	}
	r := q.Root
	if r.Label != "inproceedings" || len(r.Children) != 2 {
		t.Fatalf("root = %+v", r)
	}
	author, year := r.Children[0], r.Children[1]
	if author.Label != "author" || !author.Edge.Exact() {
		t.Errorf("author = %+v", author)
	}
	if len(author.Children) != 1 || !author.Children[0].IsValue || author.Children[0].Label != "Jim Gray" {
		t.Errorf("author value = %+v", author.Children)
	}
	if year.Label != "year" || year.Children[0].Label != "1990" {
		t.Errorf("year = %+v", year)
	}
	if q.RootEdge.Exact() {
		t.Error("leading // parsed as a child edge")
	}
	if q.Size() != 5 {
		t.Errorf("Size = %d, want 5", q.Size())
	}
}

func TestParseAllPaperQueries(t *testing.T) {
	srcs := []string{
		`//inproceedings[./author="Jim Gray"][./year="1990"]`,
		`//www[./editor]/url`,
		`//title[text()="Semantic Analysis Patterns"]`,
		`//Entry[./Keyword="Rhizomelic"]`,
		`//Entry/Ref[./Author="Mueller P"][./Author="Keller M"]`,
		`//Entry[./Org="Piroplasmida"][.//Author]//from`,
		`//S//NP/SYM`,
		`//NP[./RBR_OR_JJR]/PP`,
		`//NP/PP/NP[./NNS_OR_NN][./NN]`,
	}
	for _, src := range srcs {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%s): %v", src, err)
			continue
		}
		// Round trip through String and Parse again: same structure.
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("reparse of %s (%s): %v", src, q.String(), err)
			continue
		}
		if q2.String() != q.String() {
			t.Errorf("canonical form unstable: %s vs %s", q.String(), q2.String())
		}
	}
}

func TestParseQ5Shape(t *testing.T) {
	q := MustParse(`//Entry/Ref[./Author="Mueller P"][./Author="Keller M"]`)
	if q.Root.Label != "Entry" {
		t.Fatalf("root = %s", q.Root.Label)
	}
	ref := q.Root.Children[0]
	if ref.Label != "Ref" || !ref.Edge.Exact() {
		t.Fatalf("ref = %+v", ref)
	}
	if len(ref.Children) != 2 {
		t.Fatalf("ref children = %d", len(ref.Children))
	}
	if ref.Children[0].Children[0].Label != "Mueller P" ||
		ref.Children[1].Children[0].Label != "Keller M" {
		t.Error("author values wrong")
	}
}

func TestParseQ6Edges(t *testing.T) {
	q := MustParse(`//Entry[./Org="Piroplasmida"][.//Author]//from`)
	kids := q.Root.Children
	if len(kids) != 3 {
		t.Fatalf("children = %d", len(kids))
	}
	if !kids[0].Edge.Exact() {
		t.Error("Org edge should be exact")
	}
	if kids[1].Edge.Max != Unbounded || kids[1].Edge.Min != 1 {
		t.Error("Author edge should be descendant")
	}
	if kids[2].Label != "from" || kids[2].Edge.Max != Unbounded {
		t.Error("from edge should be descendant")
	}
}

func TestParseStars(t *testing.T) {
	q := MustParse(`/a/*/b`)
	if q.RootEdge.Min != 1 || q.RootEdge.Max != 1 {
		t.Errorf("root edge = %+v", q.RootEdge)
	}
	b := q.Root.Children[0]
	if b.Edge.Min != 2 || b.Edge.Max != 2 {
		t.Errorf("b edge = %+v, want {2,2}", b.Edge)
	}
	q = MustParse(`//a//*/b`)
	b = q.Root.Children[0]
	if b.Edge.Min != 2 || b.Edge.Max != Unbounded {
		t.Errorf("b edge = %+v, want {2,inf}", b.Edge)
	}
	q = MustParse(`//a/*/*/b`)
	b = q.Root.Children[0]
	if b.Edge.Min != 3 || b.Edge.Max != 3 {
		t.Errorf("b edge = %+v, want {3,3}", b.Edge)
	}
	// Leading star shifts the root's minimum depth.
	q = MustParse(`/*/b`)
	if q.RootEdge.Min != 2 || q.Root.Label != "b" {
		t.Errorf("leading star: root=%s edge=%+v", q.Root.Label, q.RootEdge)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``, `a/b`, `//`, `//a/`, `//a//`, `//a/*`, `//a[`, `//a[.b]`,
		`//a[./b`, `//a[text()]`, `//a[text()="x"`, `//a]`, `//a[./*[./b]/c]`,
		`//a="v"`, `//a[.//]`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestPreparePaperQuery(t *testing.T) {
	// Figure 2(b) as a twig: A with branches B/C and D/E/F, all child edges.
	q := MustParse(`//A[./B/C]/D/E/F`)
	p, err := q.Prepare(false)
	if err != nil {
		t.Fatal(err)
	}
	wantLPS := []string{"B", "A", "E", "D", "A"}
	wantNPS := []int{2, 6, 4, 5, 6}
	if !reflect.DeepEqual(p.Seq.Labels, wantLPS) {
		t.Errorf("LPS = %v, want %v", p.Seq.Labels, wantLPS)
	}
	gotNPS := p.Seq.Numbers
	if !reflect.DeepEqual(gotNPS, wantNPS) {
		t.Errorf("NPS = %v, want %v", gotNPS, wantNPS)
	}
	if p.Anchored {
		t.Error("// query must not be anchored")
	}
	for i, e := range p.Edges {
		if !e.Exact() {
			t.Errorf("edge %d = %+v, want exact", i, e)
		}
	}
}

func TestPrepareExtended(t *testing.T) {
	q := MustParse(`//a[./b="v"]/c`)
	p, err := q.Prepare(true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Extended {
		t.Error("Extended flag lost")
	}
	// Extended tree: a(b("v"(dummy)) c(dummy)): 6 nodes, LPS length 5.
	if p.Doc.Size() != 6 || p.Seq.Len() != 5 {
		t.Errorf("size=%d len=%d", p.Doc.Size(), p.Seq.Len())
	}
	// All original labels must appear in the LPS.
	joined := strings.Join(p.Seq.Labels, "|")
	for _, want := range []string{"a", "b", "c", "v"} {
		if !strings.Contains(joined, want) {
			t.Errorf("label %q missing from extended LPS %v", want, p.Seq.Labels)
		}
	}
}

func TestPrepareSingleNodeFails(t *testing.T) {
	if _, err := MustParse(`//lonely`).Prepare(false); err == nil {
		t.Error("single-node query must not prepare")
	}
}

func TestArrangements(t *testing.T) {
	q := MustParse(`//a[./b][./c]/d`)
	arr, truncated := q.Arrangements(100)
	if truncated {
		t.Error("unexpected truncation")
	}
	// Three children permute into 6 arrangements.
	if len(arr) != 6 {
		t.Fatalf("arrangements = %d, want 6", len(arr))
	}
	if arr[0].String() != q.String() {
		t.Error("original arrangement must come first")
	}
	seen := map[string]bool{}
	for _, a := range arr {
		if seen[a.String()] {
			t.Errorf("duplicate arrangement %s", a)
		}
		seen[a.String()] = true
	}
	// Identical branches collapse.
	q2 := MustParse(`//a[./b][./b]`)
	arr2, _ := q2.Arrangements(100)
	if len(arr2) != 1 {
		t.Errorf("identical branches gave %d arrangements, want 1", len(arr2))
	}
	// Truncation.
	q3 := MustParse(`//a[./b][./c][./d][./e][./f]/g`)
	arr3, trunc3 := q3.Arrangements(10)
	if !trunc3 || len(arr3) != 10 {
		t.Errorf("truncation failed: %d %v", len(arr3), trunc3)
	}
}

func TestBruteForcePaperExample(t *testing.T) {
	// Example 2: Q occurs in T. The match found in the paper maps
	// B->7, A->15, E->13, D->14 with leaves C->f(1..) and F.
	doc := xmltreetest.PaperTree(1)
	q := MustParse(`//A[./B/C]/D/E/F`)
	embs := MatchBruteForce(q, doc)
	if len(embs) == 0 {
		t.Fatal("paper query not found in paper tree")
	}
	// Query postorder: C=1 B=2 F=3 E=4 D=5 A=6.
	// The embedding from Examples 2/6: C->1? The leaf (C,1) is a child of
	// B(7)... C maps to 3 (child of B=7), F maps to one of 11/12, E->13,
	// D->14, A->15, B->7.
	found := false
	for _, e := range embs {
		if e[1] == 7 && e[5] == 15 && e[4] == 14 && e[3] == 13 {
			found = true
			if e[0] != 3 && e[0] != 6 {
				t.Errorf("C image = %d, want 3 or 6 (children of B)", e[0])
			}
			if e[2] != 11 && e[2] != 12 {
				t.Errorf("F image = %d, want 11 or 12", e[2])
			}
		}
	}
	if !found {
		t.Errorf("paper embedding missing; got %v", embs)
	}
	// B has two C children and E has two F children: 4 embeddings total.
	if len(embs) != 4 {
		t.Errorf("embeddings = %d, want 4", len(embs))
	}
}

func TestBruteForceOrderedSemantics(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(1, `(a (b) (c))`)
	// Ordered: b before c matches, c before b does not.
	if n := len(MatchBruteForce(MustParse(`//a[./b]/c`), doc)); n != 1 {
		t.Errorf("a[b]/c = %d, want 1", n)
	}
	if n := len(MatchBruteForce(MustParse(`//a[./c]/b`), doc)); n != 0 {
		t.Errorf("a[c]/b = %d, want 0 (ordered)", n)
	}
	// Unordered via arrangements.
	total := 0
	arr, _ := MustParse(`//a[./c]/b`).Arrangements(10)
	for _, a := range arr {
		total += len(MatchBruteForce(a, doc))
	}
	if total != 1 {
		t.Errorf("unordered a[c]/b = %d, want 1", total)
	}
}

func TestBruteForceDescendantAndStars(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(1, `(a (x (b)) (b))`)
	if n := len(MatchBruteForce(MustParse(`//a/b`), doc)); n != 1 {
		t.Errorf("a/b = %d, want 1", n)
	}
	if n := len(MatchBruteForce(MustParse(`//a//b`), doc)); n != 2 {
		t.Errorf("a//b = %d, want 2", n)
	}
	if n := len(MatchBruteForce(MustParse(`//a/*/b`), doc)); n != 1 {
		t.Errorf("a/*/b = %d, want 1", n)
	}
	if n := len(MatchBruteForce(MustParse(`/a`), doc)); n != 1 {
		t.Errorf("/a = %d, want 1", n)
	}
	if n := len(MatchBruteForce(MustParse(`/b`), doc)); n != 0 {
		t.Errorf("/b = %d, want 0 (anchored)", n)
	}
	if n := len(MatchBruteForce(MustParse(`//b`), doc)); n != 2 {
		t.Errorf("//b = %d, want 2", n)
	}
}

func TestBruteForceParentChildSubOptimalityCase(t *testing.T) {
	// The §2 example: P common ancestor (not parent) of Q and R must NOT
	// match P[/Q][/R] with child edges, but must match with // edges.
	doc := xmltreetest.MustFromSExpr(1, `(P (x (Q) (R)))`)
	if n := len(MatchBruteForce(MustParse(`//P[./Q]/R`), doc)); n != 0 {
		t.Errorf("child-edge query matched ancestor structure: %d", n)
	}
	if n := len(MatchBruteForce(MustParse(`//P[.//Q]//R`), doc)); n != 1 {
		t.Errorf("descendant-edge query = %d, want 1", n)
	}
}

func TestBruteForceValues(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(1,
		`(dblp (inproceedings (author "Jim Gray") (year "1990")) (inproceedings (author "Jim Gray") (year "1991")))`)
	q := MustParse(`//inproceedings[./author="Jim Gray"][./year="1990"]`)
	if n := len(MatchBruteForce(q, doc)); n != 1 {
		t.Errorf("Q1-style = %d, want 1", n)
	}
	q = MustParse(`//inproceedings[./author="Jim Gray"]`)
	if n := len(MatchBruteForce(q, doc)); n != 2 {
		t.Errorf("author query = %d, want 2", n)
	}
}

func TestBruteForceCountsAllEmbeddings(t *testing.T) {
	// Two authors and two froms: 4 embeddings of //e[.//a]//f.
	doc := xmltreetest.MustFromSExpr(1, `(e (r (a) (a)) (f) (f))`)
	q := MustParse(`//e[.//a]//f`)
	if n := len(MatchBruteForce(q, doc)); n != 4 {
		t.Errorf("embeddings = %d, want 4", n)
	}
}

func TestBruteForceDisjointBranchImages(t *testing.T) {
	// Nested b's: //a[.//b][.//b] needs two b images that are disjoint
	// subtrees in order; with b nested inside b there is no such pair.
	doc := xmltreetest.MustFromSExpr(1, `(a (b (b)))`)
	q := MustParse(`//a[.//b][.//b]`)
	if n := len(MatchBruteForce(q, doc)); n != 0 {
		t.Errorf("nested branch images accepted: %d", n)
	}
	doc2 := xmltreetest.MustFromSExpr(1, `(a (b) (b))`)
	if n := len(MatchBruteForce(q, doc2)); n != 1 {
		t.Errorf("sibling branch images = %d, want 1", n)
	}
}

func TestCountBruteForce(t *testing.T) {
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b))`),
		xmltreetest.MustFromSExpr(1, `(a (b) (b))`),
		xmltreetest.MustFromSExpr(2, `(z)`),
	}
	if n := CountBruteForce(MustParse(`//a/b`), docs); n != 3 {
		t.Errorf("count = %d, want 3", n)
	}
}

func TestParseAttributeSugar(t *testing.T) {
	// '@year' is sugar for a 'year' subelement (the paper folds attributes
	// into subelements).
	q := MustParse(`//book[@year="1990"]/@isbn`)
	if q.Root.Label != "book" || len(q.Root.Children) != 2 {
		t.Fatalf("root = %+v", q.Root)
	}
	year := q.Root.Children[0]
	if year.Label != "year" || year.Children[0].Label != "1990" || !year.Children[0].IsValue {
		t.Errorf("year predicate = %+v", year)
	}
	isbn := q.Root.Children[1]
	if isbn.Label != "isbn" || !isbn.Edge.Exact() {
		t.Errorf("isbn step = %+v", isbn)
	}
	// Equivalent to the element form against real data.
	doc := xmltreetest.MustFromSExpr(0, `(book (year "1990") (isbn "x"))`)
	if n := len(MatchBruteForce(q, doc)); n != 1 {
		t.Errorf("attribute query matches = %d, want 1", n)
	}
	if _, err := Parse(`//book[@="x"]`); err == nil {
		t.Error("bare @ accepted")
	}
}
