package prix

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/prufer"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func build(t testing.TB, extended bool, docs ...*xmltree.Document) *Index {
	t.Helper()
	ix, err := Build(docs, Options{Extended: extended, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func mustMatch(t testing.TB, ix *Index, q string, opts MatchOptions) []Match {
	t.Helper()
	ms, _, err := ix.Match(twig.MustParse(q), opts)
	if err != nil {
		t.Fatalf("Match(%s): %v", q, err)
	}
	return ms
}

func TestPaperExampleEndToEnd(t *testing.T) {
	// Example 2/6: query twig of Figure 2(b) against tree T of Figure 2(a).
	doc := xmltreetest.PaperTree(0)
	for _, extended := range []bool{false, true} {
		ix := build(t, extended, doc)
		ms := mustMatch(t, ix, `//A[./B/C]/D/E/F`, MatchOptions{})
		// Brute force says 4 embeddings (two C choices × two F choices).
		if len(ms) != 4 {
			t.Errorf("extended=%v: matches = %d, want 4", extended, len(ms))
		}
		for _, m := range ms {
			if m.DocID != 0 {
				t.Errorf("docID = %d", m.DocID)
			}
		}
	}
}

func TestPaperSubsequencePositions(t *testing.T) {
	// The specific subsequence of Example 2 at positions (6,7,11,13,14)
	// fails refinement? No: Example 6 refines positions (3,7,11,13,14).
	// Both position sets are enumerated during filtering; refinement keeps
	// only consistent ones. Check the surviving matches' positions are
	// plausible: every position list is strictly increasing.
	ix := build(t, false, xmltreetest.PaperTree(0))
	ms := mustMatch(t, ix, `//A[./B/C]/D/E/F`, MatchOptions{})
	for _, m := range ms {
		for i := 1; i < len(m.Positions); i++ {
			if m.Positions[i] <= m.Positions[i-1] {
				t.Errorf("positions not increasing: %v", m.Positions)
			}
		}
		if m.Root != 15 {
			t.Errorf("root image = %d, want 15", m.Root)
		}
	}
}

func TestNoFalseAlarmsVsViSTExample(t *testing.T) {
	// Figure 1(b): Q = B[./A]/D occurs in Doc1 = B(A D) but not in
	// Doc2 = B(A(D)) — ViST's subsequence matching reports both; PRIX's
	// refinement must reject Doc2.
	doc1 := xmltreetest.MustFromSExpr(0, `(B (A) (D))`)
	doc2 := xmltreetest.MustFromSExpr(1, `(B (A (D)))`)
	for _, extended := range []bool{false, true} {
		ix := build(t, extended, doc1, doc2)
		ms := mustMatch(t, ix, `//B[./A]/D`, MatchOptions{})
		if len(ms) != 1 || ms[0].DocID != 0 {
			t.Errorf("extended=%v: matches = %+v, want single match in doc 0", extended, ms)
		}
	}
}

func TestValueQueries(t *testing.T) {
	doc := func(id int, author, year string) *xmltree.Document {
		return xmltreetest.MustFromSExpr(id, fmt.Sprintf(
			`(inproceedings (author %q) (year %q))`, author, year))
	}
	docs := []*xmltree.Document{
		doc(0, "Jim Gray", "1990"),
		doc(1, "Jim Gray", "1991"),
		doc(2, "Ann Other", "1990"),
	}
	for _, extended := range []bool{false, true} {
		ix := build(t, extended, docs...)
		ms := mustMatch(t, ix, `//inproceedings[./author="Jim Gray"][./year="1990"]`, MatchOptions{})
		if len(ms) != 1 || ms[0].DocID != 0 {
			t.Errorf("extended=%v: Q1-style matches = %+v", extended, ms)
		}
		// Value must not match an element of the same name.
		ms = mustMatch(t, ix, `//inproceedings[./author="author"]`, MatchOptions{})
		if len(ms) != 0 {
			t.Errorf("extended=%v: value/tag namespace collision: %+v", extended, ms)
		}
	}
}

func TestWildcardDescendant(t *testing.T) {
	// §4.5 example shape: //A//C with intermediate nodes.
	doc := xmltreetest.MustFromSExpr(0, `(A (B (C (x))) (C (y)))`)
	for _, extended := range []bool{false, true} {
		ix := build(t, extended, doc)
		// C is internal (has a child), so //A//C/x works on both indexes.
		ms := mustMatch(t, ix, `//A//C/x`, MatchOptions{})
		if len(ms) != 1 {
			t.Errorf("extended=%v: //A//C/x = %d, want 1", extended, len(ms))
		}
		ms = mustMatch(t, ix, `//A/*/C/x`, MatchOptions{})
		if len(ms) != 1 {
			t.Errorf("extended=%v: //A/*/C/x = %d, want 1", extended, len(ms))
		}
		ms = mustMatch(t, ix, `//A/C/x`, MatchOptions{})
		if len(ms) != 0 {
			t.Errorf("extended=%v: //A/C/x = %d, want 0", extended, len(ms))
		}
	}
}

func TestWildcardLeafEdgeNeedsEPIndex(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(0, `(Entry (Ref (Author (v))) (from (w)))`)
	rp := build(t, false, doc)
	// "from" is a twig leaf attached by //: RPIndex must refuse.
	if _, _, err := rp.Match(twig.MustParse(`//Entry[./Ref]//from`), MatchOptions{}); err == nil {
		t.Error("RPIndex accepted wildcard leaf edge")
	}
	ep := build(t, true, doc)
	ms := mustMatch(t, ep, `//Entry[./Ref]//from`, MatchOptions{})
	if len(ms) != 1 {
		t.Errorf("EPIndex //Entry[./Ref]//from = %d, want 1", len(ms))
	}
}

func TestAnchoredQueries(t *testing.T) {
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (a (c))))`),
	}
	for _, extended := range []bool{false, true} {
		ix := build(t, extended, docs...)
		if n := len(mustMatch(t, ix, `/a/b`, MatchOptions{})); n != 1 {
			t.Errorf("extended=%v: /a/b = %d, want 1", extended, n)
		}
		// Inner a also has no b child; anchored /a/c must not match the
		// inner a's c.
		if n := len(mustMatch(t, ix, `/a/c`, MatchOptions{})); n != 0 {
			t.Errorf("extended=%v: /a/c = %d, want 0", extended, n)
		}
		if n := len(mustMatch(t, ix, `//a/c`, MatchOptions{})); n != 1 {
			t.Errorf("extended=%v: //a/c = %d, want 1", extended, n)
		}
		// Leading star pins the root image's depth exactly.
		if n := len(mustMatch(t, ix, `/*/b/a`, MatchOptions{})); n != 1 {
			t.Errorf("extended=%v: /*/b/a = %d, want 1 (b at depth 2 with child a)", extended, n)
		}
		if n := len(mustMatch(t, ix, `/*/*/a/c`, MatchOptions{})); n != 1 {
			t.Errorf("extended=%v: /*/*/a/c = %d, want 1", extended, n)
		}
		if n := len(mustMatch(t, ix, `/*/a/c`, MatchOptions{})); n != 0 {
			t.Errorf("extended=%v: /*/a/c = %d, want 0", extended, n)
		}
	}
}

func TestUnorderedMatching(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(0, `(a (c (x)) (b (y)))`)
	for _, extended := range []bool{false, true} {
		ix := build(t, extended, doc)
		q := `//a[./b/y]/c/x` // ordered: b before c required; data has c first
		if n := len(mustMatch(t, ix, q, MatchOptions{})); n != 0 {
			t.Errorf("extended=%v: ordered = %d, want 0", extended, n)
		}
		if n := len(mustMatch(t, ix, q, MatchOptions{Unordered: true})); n != 1 {
			t.Errorf("extended=%v: unordered = %d, want 1", extended, n)
		}
	}
}

func TestMultipleDocsAndSharing(t *testing.T) {
	// Many identical documents share one trie path; all must match.
	var docs []*xmltree.Document
	for i := 0; i < 50; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(r (a (b)) (c))`))
	}
	docs = append(docs, xmltreetest.MustFromSExpr(50, `(r (a (z)) (c))`))
	ix := build(t, false, docs...)
	ms := mustMatch(t, ix, `//r[./a/b]/c`, MatchOptions{})
	if len(ms) != 50 {
		t.Errorf("matches = %d, want 50", len(ms))
	}
	seen := map[uint32]bool{}
	for _, m := range ms {
		seen[m.DocID] = true
	}
	if seen[50] {
		t.Error("non-matching doc 50 reported")
	}
}

func TestAbsentLabelShortCircuit(t *testing.T) {
	ix := build(t, false, xmltreetest.MustFromSExpr(0, `(a (b))`))
	ms, stats, err := ix.Match(twig.MustParse(`//nosuch/b`), MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 || stats.RangeQueries != 0 {
		t.Errorf("absent label: %d matches, %d range queries", len(ms), stats.RangeQueries)
	}
}

// The central correctness property: PRIX (both index kinds, with and
// without MaxGap pruning) agrees exactly with the brute-force oracle — no
// false alarms, no false dismissals (Theorems 1-4) — embedding by embedding.
// Wildcard ("//", "*") twigs included: a twig with two non-exact branches
// under one node is split and joined (split.go, DESIGN.md "Known algorithmic
// corner").
func TestAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alphabet := []string{"a", "b", "c", "d"}
	values := []string{"v1", "v2"}
	queries := []string{
		`//a/b`, `//a[./b]/c`, `//a[./b][./c]/d`, `//a/b/c`,
		`//a[./b/c]/d`, `/a/b`, `//b[./a]/a`,
		`//a[./b="v1"]/c`, `//c[text()="v2"]`, `//a[./a]/a`,
		`//a[./b][./b]`, `//a[./c="v1"][./d]`,
		`//a//b`, `//a[.//b]//c`, `//a/*/b`, `//d//d`, `//b/*/*/c`,
		`//a[./c//d]/b`, `//a[.//b]/c`, `/*/a/b`,
	}
	for trial := 0; trial < 30; trial++ {
		var docs []*xmltree.Document
		for d := 0; d < 8; d++ {
			docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
				Nodes:     3 + rng.Intn(25),
				Alphabet:  alphabet,
				MaxFanout: 4,
				ValueProb: 0.4,
				Values:    values,
			}))
		}
		rp := build(t, false, docs...)
		ep := build(t, true, docs...)
		engines := []struct {
			name string
			ix   *Index
			opts MatchOptions
		}{
			{"rp", rp, MatchOptions{}},
			{"rp-nogap", rp, MatchOptions{DisableMaxGap: true}},
			{"ep", ep, MatchOptions{}},
			{"ep-nogap", ep, MatchOptions{DisableMaxGap: true}},
		}
		check := func(qs string) {
			q := twig.MustParse(qs)
			// Ground-truth embedding set per doc, keyed canonically.
			truth := map[string]bool{}
			for _, d := range docs {
				for _, e := range twig.MatchBruteForce(q, d) {
					truth[fmt.Sprintf("%d:%v", d.ID, e)] = true
				}
			}
			for _, tc := range engines {
				got, _, err := tc.ix.Match(q, tc.opts)
				if err != nil {
					if !tc.ix.Extended() {
						continue // RPIndex legitimately refuses wildcard leaf edges
					}
					t.Fatalf("trial %d %s %s: %v", trial, tc.name, qs, err)
				}
				// Soundness: every reported match is a true embedding.
				for _, m := range got {
					key := fmt.Sprintf("%d:%v", m.DocID, originalImages(t, docs[m.DocID], tc.ix.Extended(), m))
					if !truth[key] {
						t.Fatalf("trial %d %s: query %s: false alarm %s (doc %s)",
							trial, tc.name, qs, key, docs[m.DocID])
					}
				}
				// Completeness.
				if len(got) != len(truth) {
					t.Fatalf("trial %d %s: query %s: got %d matches, brute force %d (doc set below)\n%v",
						trial, tc.name, qs, len(got), len(truth), docs)
				}
			}
		}
		for _, qs := range queries {
			check(qs)
		}
	}
}

// originalImages converts a match's canonical images (which are postorder
// numbers in the sequenced tree — the extended tree for an EPIndex) back to
// original-tree postorder numbers, dropping dummy entries, so they can be
// compared with brute-force embeddings.
func originalImages(t *testing.T, doc *xmltree.Document, extended bool, m Match) []int {
	t.Helper()
	if !extended {
		out := make([]int, len(m.Images))
		for i, v := range m.Images {
			out[i] = int(v)
		}
		return out
	}
	ext := prufer.ExtendTree(doc)
	toOrig := make([]int, ext.Size()+1)
	rank := 0
	for _, n := range ext.Nodes {
		if !prufer.IsDummy(n) {
			rank++
			toOrig[n.Post] = rank
		}
	}
	var out []int
	for _, v := range m.Images {
		if v == 0 {
			continue // dummy query node
		}
		out = append(out, toOrig[v])
	}
	return out
}

func TestMaxGapPruningActuallyPrunes(t *testing.T) {
	// A label with small MaxGap in a dataset with scattered occurrences:
	// pruning must cut trie exploration but keep the same answers.
	var docs []*xmltree.Document
	for i := 0; i < 30; i++ {
		// r(q(x) filler... q(x)): MaxGap(q)=0 since q has one child.
		docs = append(docs, xmltreetest.MustFromSExpr(i,
			`(r (q (x)) (f1 (f2) (f3)) (p (q (x))))`))
	}
	ix := build(t, false, docs...)
	q := twig.MustParse(`//r[./q/x]/p`)
	msOn, statsOn, err := ix.Match(q, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	msOff, statsOff, err := ix.Match(q, MatchOptions{DisableMaxGap: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(msOn) != len(msOff) {
		t.Fatalf("pruning changed result: %d vs %d", len(msOn), len(msOff))
	}
	if statsOn.TriePathsPruned == 0 {
		t.Skip("no pruning triggered on this workload")
	}
	if statsOn.Candidates > statsOff.Candidates {
		t.Errorf("pruning increased candidates: %d > %d", statsOn.Candidates, statsOff.Candidates)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)) (d))`),
		xmltreetest.MustFromSExpr(1, `(a (b (x)) (d))`),
	}
	ix, err := Build(docs, Options{Dir: dir, BufferPoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	before := mustMatch(t, ix, `//a[./b/c]/d`, MatchOptions{})

	ix2, err := Open(dir, Options{BufferPoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	after := mustMatch(t, ix2, `//a[./b/c]/d`, MatchOptions{})
	if len(before) != 1 || len(after) != 1 || after[0].DocID != 0 {
		t.Errorf("persistence mismatch: before=%v after=%v", before, after)
	}
	if ix2.NumDocs() != 2 {
		t.Errorf("NumDocs = %d", ix2.NumDocs())
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	var docs []*xmltree.Document
	for i := 0; i < 20; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d))`))
	}
	ix := build(t, false, docs...)
	_, stats, err := ix.Match(twig.MustParse(`//a[./b/c]/d`), MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RangeQueries == 0 || stats.Candidates == 0 || stats.Matches != 20 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.PagesRead == 0 {
		t.Error("cold query read no pages")
	}
	if stats.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
}

func TestSingleNodeDocument(t *testing.T) {
	// A one-node document has an empty LPS; it must be indexable and
	// simply never match multi-node queries.
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(lonely)`),
		xmltreetest.MustFromSExpr(1, `(a (b))`),
	}
	ix := build(t, false, docs...)
	ms := mustMatch(t, ix, `//a/b`, MatchOptions{})
	if len(ms) != 1 || ms[0].DocID != 1 {
		t.Errorf("matches = %+v", ms)
	}
}

func BenchmarkMatchSmallCollection(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var docs []*xmltree.Document
	for i := 0; i < 200; i++ {
		docs = append(docs, xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes: 30, Alphabet: []string{"a", "b", "c", "d", "e"}, MaxFanout: 4,
		}))
	}
	ix := build(b, false, docs...)
	q := twig.MustParse(`//a[./b]/c`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Match(q, MatchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
