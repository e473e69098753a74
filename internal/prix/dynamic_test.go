package prix

import (
	"math/rand"
	"testing"

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
// the value is a label in the LPS and its rewrite carves a new trie path; an
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
