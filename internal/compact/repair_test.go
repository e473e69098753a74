package compact

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/scrub"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// randomDocs is n random documents over labels a–e and values v1/v2.
func randomDocs(n int, seed int64) []*xmltree.Document {
	rng := rand.New(rand.NewSource(seed))
	var docs []*xmltree.Document
	for d := 0; d < n; d++ {
		docs = append(docs, xmltree.RandomDocument(rng, d, xmltree.RandomConfig{
			Nodes: 3 + rng.Intn(16), Alphabet: []string{"a", "b", "c", "d", "e"},
			MaxFanout: 4, ValueProb: 0.2, Values: []string{"v1", "v2"},
		}))
	}
	return docs
}

// assertRootOracle requires each twig's count on r to equal
// twig.CountBruteForce over docs.
func assertRootOracle(t *testing.T, label string, r *Root, docs []*xmltree.Document) {
	t.Helper()
	for _, src := range []string{`//a/b`, `//b[./c]`, `//a[./b]/c`, `//b/c`, `//a/d`, `//e`, `//a[./b][./d]`, `//c[./d]`} {
		q := twig.MustParse(src)
		ms, _, err := r.Match(q, prix.MatchOptions{})
		if err != nil {
			t.Fatalf("%s: %s: %v", label, src, err)
		}
		if want := twig.CountBruteForce(q, docs); len(ms) != want {
			t.Errorf("%s: %s: %d matches, oracle %d", label, src, len(ms), want)
		}
	}
}

// A scrubber wired to a Root as prixserve wires it (the Root's Source and
// Gate, AutoRepair on) rebuilds the forest when a forest page fails its
// checksum, and the rebuild relabels dynamically: inserts after it, and
// after a reopen, stay oracle-exact.
func TestScrubberRepairsRootForestThenInserts(t *testing.T) {
	dir := t.TempDir()
	docs := randomDocs(120, 7)
	di, err := prix.NewDynamicIndex(docs[:60], prix.Options{Dir: dir}, prix.DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := root.Index().Index()
	f := ix.Forest().BufferPool().File()
	if err := pager.FlipBit(f, pager.PageID(f.NumPages()-1), (pager.PageHeaderSize+11)*8+2); err != nil {
		t.Fatal(err)
	}
	// Drop the pools' verified copy, so only a rebuild can mend the page.
	if err := ix.ResetIOStats(); err != nil {
		t.Fatal(err)
	}
	sc := scrub.New(ix, scrub.Config{
		Throttle:   -1,
		AutoRepair: true,
		Source:     func() *prix.Index { return root.Index().Index() },
		Gate:       root.Gate(),
	})
	rep, err := sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ForestRebuilt || !rep.Clean {
		t.Fatalf("the pass did not rebuild the forest clean: %+v", rep)
	}
	for _, d := range docs[60:90] {
		if err := root.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	assertRootOracle(t, "rebuild, then inserts", root, docs[:90])
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}

	root, err = OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	for _, d := range docs[90:] {
		if err := root.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	assertRootOracle(t, "reopened, then inserts", root, docs)
}
