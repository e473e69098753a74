package prix

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/twig/twigtest"
)

// TestIOSplitDiagnostic documents where a cold twig query's physical reads
// actually land: nearly all on the forest pool (the Algorithm 1 trie
// descent), almost none on the docstore (Algorithm 2 refinement). That
// split is why the parallel pipeline fans out the descent's hit subtrees
// and prefetches B+-tree ranges rather than only parallelizing
// refinement. Run with -v to see the per-query split.
func TestIOSplitDiagnostic(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic only")
	}
	ds, err := datagen.ByName("SWISSPROT", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ds.Docs, Options{Extended: true, BufferPoolPages: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range ds.Queries {
		q := qs.Query()
		if !twigtest.HasBranches(q.Root) {
			continue
		}
		ix.DropCaches()
		f0 := ix.forest.BufferPool().Stats().PhysicalReads
		s0 := ix.store.BufferPool().Stats().PhysicalReads
		if _, _, err := ix.Match(q, MatchOptions{Unordered: true, Parallelism: 1, WarmCache: true}); err != nil {
			t.Fatal(err)
		}
		forest := ix.forest.BufferPool().Stats().PhysicalReads - f0
		store := ix.store.BufferPool().Stats().PhysicalReads - s0
		t.Logf("%s: forest=%d store=%d", qs.ID, forest, store)
		if forest+store == 0 {
			t.Errorf("%s: cold unordered query read no pages", qs.ID)
		}
	}
}
