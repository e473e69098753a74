package prix

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func TestDynamicIndexInsertAndQuery(t *testing.T) {
	initial := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)) (d))`),
		xmltreetest.MustFromSExpr(1, `(a (b (x)))`),
	}
	di, err := NewDynamicIndex(initial, Options{BufferPoolPages: 64}, DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix := di.Index()
	if n := len(mustMatch(t, ix, `//a[./b/c]/d`, MatchOptions{})); n != 1 {
		t.Fatalf("initial matches = %d", n)
	}
	// Insert more matching documents; they must be visible immediately.
	for i := 0; i < 20; i++ {
		if err := di.Insert(xmltreetest.MustFromSExpr(0, `(a (b (c)) (d))`)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(mustMatch(t, ix, `//a[./b/c]/d`, MatchOptions{})); n != 21 {
		t.Errorf("after inserts: matches = %d, want 21", n)
	}
	// Insert a structurally new document (fresh trie path).
	if err := di.Insert(xmltreetest.MustFromSExpr(0, `(z (y (w)))`)); err != nil {
		t.Fatal(err)
	}
	if n := len(mustMatch(t, ix, `//z/y/w`, MatchOptions{})); n != 1 {
		t.Errorf("new structure not queryable: %d", n)
	}
	if di.Underflows() != 0 {
		t.Errorf("underflows = %d", di.Underflows())
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
}

// Property: a dynamic index answers exactly like a statically built index
// over the same documents (both equal brute force).
func TestDynamicEqualsStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	queries := []string{`//a/b`, `//a[./b]/c`, `//a[./b][./c]/d`, `//b/c`, `//a[./b="v1"]/c`}
	for trial := 0; trial < 10; trial++ {
		var docs []*xmltree.Document
		for d := 0; d < 12; d++ {
			docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
				Nodes: 3 + rng.Intn(20), Alphabet: []string{"a", "b", "c", "d"},
				MaxFanout: 4, ValueProb: 0.3, Values: []string{"v1", "v2"},
			}))
		}
		for _, extended := range []bool{false, true} {
			static := build(t, extended, docs...)
			// Dynamic: seed with the first half, insert the rest.
			di, err := NewDynamicIndex(docs[:6], Options{Extended: extended, BufferPoolPages: 64}, DynamicOptions{Alpha: 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range docs[6:] {
				if err := di.Insert(doc); err != nil {
					t.Fatal(err)
				}
			}
			for _, qs := range queries {
				q := twig.MustParse(qs)
				sm, _, err := static.Match(q, MatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				dm, _, err := di.Index().Match(q, MatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if len(sm) != len(dm) {
					t.Fatalf("trial %d extended=%v %s: static=%d dynamic=%d",
						trial, extended, qs, len(sm), len(dm))
				}
			}
		}
	}
}

func TestDynamicIndexSingleNodeDoc(t *testing.T) {
	di, err := NewDynamicIndex(nil, Options{BufferPoolPages: 32}, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Insert(xmltreetest.MustFromSExpr(0, `(lonely)`)); err != nil {
		t.Fatal(err)
	}
	if err := di.Insert(xmltreetest.MustFromSExpr(0, `(a (b))`)); err != nil {
		t.Fatal(err)
	}
	if n := len(mustMatch(t, di.Index(), `//a/b`, MatchOptions{})); n != 1 {
		t.Errorf("matches = %d", n)
	}
	if n := len(mustMatch(t, di.Index(), `//lonely`, MatchOptions{})); n != 1 {
		t.Errorf("single-node doc not found: %d", n)
	}
}

// A value-only Update relabels on an EPIndex and is record-only on an
// RPIndex. An EPIndex gives every value an extension dummy child (§5.6), so
// the value is a label in the LPS and its rewrite writes a new chain; an
// RPIndex keeps values as leaves, out of the LPS.
func TestValueUpdateRelabelsOnlyOnEP(t *testing.T) {
	for _, extended := range []bool{false, true} {
		docs := []*xmltree.Document{
			xmltreetest.MustFromSExpr(0, `(a (b (c "v1")) (x))`),
			xmltreetest.MustFromSExpr(1, `(a (b (c "v1")) (y))`),
		}
		di, err := NewDynamicIndex(docs, Options{Extended: extended, BufferPoolPages: 64}, DynamicOptions{Alpha: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := di.Update(0, xmltreetest.MustFromSExpr(0, `(a (b (c "v2")) (x))`))
		if err != nil {
			t.Fatal(err)
		}
		if res.Relabeled != extended {
			t.Errorf("extended=%v: value-only update Relabeled = %v", extended, res.Relabeled)
		}
		if res.PatchBytes <= 0 || res.PatchBytes >= res.FullBytes {
			t.Errorf("extended=%v: patch %d bytes against a %d-byte rewrite", extended, res.PatchBytes, res.FullBytes)
		}
		di.Close()
	}
}

// Every TREEBANK scale-1 document is inserted into an empty dynamic index
// and none is refused: the deepest sequences get chains like any other. The
// on-the-fly labeler chains replaced refused 9 of the 400 with a scope
// underflow. Every planted query then answers like the brute-force oracle,
// on an EPIndex and an RPIndex.
func TestInsertEveryTreebankDocument(t *testing.T) {
	ds, err := datagen.ByName("TREEBANK", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Docs) != 400 || len(ds.Queries) == 0 {
		t.Fatalf("TREEBANK scale 1: %d documents, %d queries", len(ds.Docs), len(ds.Queries))
	}
	for _, extended := range []bool{true, false} {
		di, err := NewDynamicIndex(nil, Options{Extended: extended}, DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, doc := range ds.Docs {
			if err := di.Insert(doc); err != nil {
				t.Fatalf("extended=%v: insert of document %d of %d refused: %v", extended, i, len(ds.Docs), err)
			}
		}
		if n, err := di.ChainedDocs(); err != nil || n != len(ds.Docs) {
			t.Fatalf("extended=%v: %d chained documents (%v), want %d", extended, n, err, len(ds.Docs))
		}
		for _, qs := range ds.Queries {
			q := qs.Query()
			ms, _, err := di.Match(q, MatchOptions{})
			if !extended && errors.Is(err, ErrNeedsExtendedIndex) {
				continue
			}
			if err != nil {
				t.Fatalf("extended=%v %s: %v", extended, qs.ID, err)
			}
			if want := twig.CountBruteForce(q, ds.Docs); len(ms) != want {
				t.Errorf("extended=%v %s %s: %d matches, oracle %d", extended, qs.ID, qs.XPath, len(ms), want)
			}
		}
		di.Close()
	}
}

// 3,000 value updates on an EPIndex over DBLP and SWISSPROT documents, one
// document at a time and no compaction, are all accepted. An EPIndex value
// is an LPS label (§5.6), so each writes a chain; the labeler chains
// replaced refused the first at update 1,667, having run out of range under
// the shared prefixes. The planted queries then answer like the brute-force
// oracle over the updated documents, and a value each update wrote is found
// in exactly its document.
func TestValueUpdatesWithoutCompaction(t *testing.T) {
	dblp, sp := datagen.DBLP(1, 1), datagen.SwissProt(2, 1)
	docs := append(append([]*xmltree.Document{}, dblp.Docs...), sp.Docs...)
	if len(docs) < 3000 {
		t.Fatalf("%d documents, want 3,000", len(docs))
	}
	docs = docs[:3000]
	di, err := NewDynamicIndex(docs, Options{Extended: true}, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	model := append([]*xmltree.Document{}, docs...)
	for i := range model {
		d := model[i].Clone()
		d.Number()
		for _, n := range d.Nodes {
			if n.IsValue {
				n.Label = fmt.Sprintf("%s (update %d)", n.Label, i)
				break
			}
		}
		res, err := di.Update(uint32(i), d)
		if err != nil {
			t.Fatalf("update %d of %d refused: %v", i+1, len(model), err)
		}
		if !res.Relabeled {
			t.Fatalf("update %d rewrote a value but not the LPS", i+1)
		}
		model[i] = d
	}
	if n, err := di.ChainedDocs(); err != nil || n != len(model) {
		t.Fatalf("%d chained documents (%v), want %d", n, err, len(model))
	}
	for _, qs := range append(append([]datagen.QuerySpec{}, dblp.Queries...), sp.Queries...) {
		q := qs.Query()
		ms, _, err := di.Match(q, MatchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", qs.ID, err)
		}
		if want := twig.CountBruteForce(q, model); len(ms) != want {
			t.Errorf("%s %s: %d matches, oracle %d", qs.ID, qs.XPath, len(ms), want)
		}
	}
	for _, i := range []int{0, 1667, 2999} {
		var first *xmltree.Node
		for _, n := range model[i].Nodes {
			if n.IsValue {
				first = n
				break
			}
		}
		src := fmt.Sprintf(`//%s[text()=%q]`, first.Parent.Label, first.Label)
		ms, _, err := di.Match(twig.MustParse(src), MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || ms[0].DocID != uint32(i) {
			t.Errorf("%s: %v, want one match in document %d", src, ms, i)
		}
	}
}
