package prix

import (
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/twig"
	"repro/internal/twig/twigtest"
	"repro/internal/twigstack"
	"repro/internal/vist"
	"repro/internal/xmltree"
)

// The oracle-backed differential suite: every engine in the repository —
// PRIX Match (serial and parallel), TwigStack, TwigStackXB and ViST — is run
// over one corpus and checked against the brute-force embedding oracle in
// internal/twig, under both ordered and unordered semantics. The suite's
// value is the cross-product: a bug in any one engine (or in the oracle)
// shows up as a disagreement here even when that engine's own unit tests
// pass. FuzzMatchOracle runs the same shapes, and random ones, over random
// corpora.

// diffShapes are the query shapes the suite exercises. `branches` marks
// queries with at least two branch children, for which unordered semantics
// differ from ordered.
var diffShapes = []struct {
	src      string
	branches bool
}{
	{`//a/b`, false},
	{`/a/b/c`, false},
	{`//a[./b/c]/d`, true},
	{`//a[./b][./d]`, true},
	{`//a[./b/c="x"]/d`, true},
	{`//b[./c]`, false},
	{`//a//d/e`, false},
	{`//a[.//b]//c`, true},
	{`//a`, false},
}

// rpShapes parses the diffShapes an RPIndex answers: those without a
// non-exact edge directly above a leaf.
func rpShapes() []*twig.Query {
	var qs []*twig.Query
	for _, sh := range diffShapes {
		if q := twig.MustParse(sh.src); wildcardLeaf(q.Root) == nil {
			qs = append(qs, q)
		}
	}
	return qs
}

// bruteOrderedCount is the ordered oracle: total embeddings over the corpus.
func bruteOrderedCount(q *twig.Query, docs []*xmltree.Document) int {
	return twig.CountBruteForce(q, docs)
}

// bruteDocSet is the document-level oracle: ids of documents containing at
// least one ordered embedding.
func bruteDocSet(q *twig.Query, docs []*xmltree.Document) map[uint32]bool {
	set := map[uint32]bool{}
	for _, d := range docs {
		if len(twig.MatchBruteForce(q, d)) > 0 {
			set[uint32(d.ID)] = true
		}
	}
	return set
}

// TestDifferentialPRIXOrdered: PRIX match counts equal the brute-force
// oracle on both index kinds at every parallelism, for every shape.
func TestDifferentialPRIXOrdered(t *testing.T) {
	docs := parallelCorpus()
	rp := build(t, false, docs...)
	ep := build(t, true, docs...)
	for _, sh := range diffShapes {
		q := twig.MustParse(sh.src)
		want := bruteOrderedCount(q, docs)
		for name, ix := range map[string]*Index{"rp": rp, "ep": ep} {
			for _, par := range []int{1, 4} {
				opts := MatchOptions{WarmCache: true, Parallelism: par}
				ms, _, err := ix.Match(q, opts)
				if errors.Is(err, ErrNeedsExtendedIndex) && !ix.Extended() {
					continue // RPIndex legitimately refuses this class
				}
				if err != nil {
					t.Fatalf("%s %s par=%d: %v", name, sh.src, par, err)
				}
				if len(ms) != want {
					t.Errorf("%s %s par=%d: %d matches, oracle %d",
						name, sh.src, par, len(ms), want)
				}
			}
		}
	}
}

// TestDifferentialPRIXUnordered: same contract under unordered semantics,
// against the arrangement-union oracle (twigtest.UnorderedCount).
func TestDifferentialPRIXUnordered(t *testing.T) {
	docs := parallelCorpus()
	rp := build(t, false, docs...)
	ep := build(t, true, docs...)
	for _, sh := range diffShapes {
		if !sh.branches {
			continue // without branches, unordered == ordered (covered above)
		}
		q := twig.MustParse(sh.src)
		want := twigtest.UnorderedCount(q, docs)
		for name, ix := range map[string]*Index{"rp": rp, "ep": ep} {
			for _, par := range []int{1, 4} {
				opts := MatchOptions{WarmCache: true, Unordered: true, Parallelism: par}
				ms, _, err := ix.Match(q, opts)
				if errors.Is(err, ErrNeedsExtendedIndex) && !ix.Extended() {
					continue
				}
				if err != nil {
					t.Fatalf("%s %s par=%d: %v", name, sh.src, par, err)
				}
				if len(ms) != want {
					t.Errorf("%s unordered %s par=%d: %d matches, oracle %d",
						name, sh.src, par, len(ms), want)
				}
			}
		}
	}
}

// TestDifferentialTwigStack: both stream algorithms report the oracle's
// ordered occurrence count on every shape.
func TestDifferentialTwigStack(t *testing.T) {
	docs := parallelCorpus()
	st, err := twigstack.Build(docs,
		pager.NewBufferPool(pager.NewMemFile(), 256), &docstore.Dict{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range diffShapes {
		q := twig.MustParse(sh.src)
		want := bruteOrderedCount(q, docs)
		for _, algo := range []twigstack.Algorithm{twigstack.TwigStack, twigstack.TwigStackXB} {
			got, _, err := st.Match(q, algo)
			if err != nil {
				t.Fatalf("%s %s: %v", algo, sh.src, err)
			}
			if got != want {
				t.Errorf("%s %s: %d matches, oracle %d", algo, sh.src, got, want)
			}
		}
	}
}

// TestDifferentialViST: ViST stops at candidate documents (no refinement),
// so the contract is one-sided — its docid set must be a superset of the
// true document set: false alarms allowed, false dismissals never.
func TestDifferentialViST(t *testing.T) {
	docs := parallelCorpus()
	vx, err := vist.Build(docs,
		pager.NewBufferPool(pager.NewMemFile(), 256), &docstore.Dict{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range diffShapes {
		q := twig.MustParse(sh.src)
		truth := bruteDocSet(q, docs)
		got, _, err := vx.Match(q)
		if err != nil {
			t.Fatalf("vist %s: %v", sh.src, err)
		}
		cand := map[uint32]bool{}
		for _, d := range got {
			cand[d] = true
		}
		for d := range truth {
			if !cand[d] {
				t.Errorf("vist %s: false dismissal of doc %d (doc %s)", sh.src, d, docs[d])
			}
		}
	}
}

// TestDifferentialSampleDataset runs the cross-engine comparison on sample
// documents (the bundled SWISSPROT generator) instead of the synthetic
// corpus: PRIX at several parallelism levels and both stream algorithms
// must all report the dataset's planted occurrence counts.
func TestDifferentialSampleDataset(t *testing.T) {
	ds, err := datagen.ByName("SWISSPROT", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Build(ds.Docs, Options{Extended: true, BufferPoolPages: 2000})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	st, err := twigstack.Build(ds.Docs,
		pager.NewBufferPool(pager.NewMemFile(), 2000), &docstore.Dict{})
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range ds.Queries {
		q := qs.Query()
		for _, par := range []int{1, 4} {
			ms, _, err := ep.Match(q, MatchOptions{WarmCache: true, Parallelism: par})
			if err != nil {
				t.Fatalf("%s par=%d: %v", qs.ID, par, err)
			}
			if len(ms) != qs.Want {
				t.Errorf("%s par=%d: PRIX = %d, want %d", qs.ID, par, len(ms), qs.Want)
			}
		}
		for _, algo := range []twigstack.Algorithm{twigstack.TwigStack, twigstack.TwigStackXB} {
			got, _, err := st.Match(q, algo)
			if err != nil {
				t.Fatalf("%s %s: %v", qs.ID, algo, err)
			}
			if got != qs.Want {
				t.Errorf("%s %s: %d matches, want %d", qs.ID, algo, got, qs.Want)
			}
		}
	}
}
