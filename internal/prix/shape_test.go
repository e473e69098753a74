package prix

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/btree"
	"repro/internal/datagen"
	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// storeReads is the docs.db pool's logical read counter.
func storeReads(ix *Index) uint64 { return ix.store.BufferPool().Stats().LogicalReads }

// Algorithm 2 refines a latest image against the document's resident shape
// and LPS: on a cold EPIndex and a cold RPIndex, reopened from disk with a
// small pool (Open reads the LPS around it), no query reads a docs.db
// page, on one goroutine or at Parallelism 4, and the matches are the planted
// counts. That holds for a regular-Prüfer element leaf landing on an internal
// data node (Q2, //www[./editor]/url: editor and url have text children),
// whose label is in the LPS, and for the single-node scan (the root and a
// leaf element of the first document, which every node label check reads).
func TestRefinementReadsNoRecords(t *testing.T) {
	for _, extended := range []bool{true, false} {
		for _, name := range datagen.Names() {
			ds, err := datagen.ByName(name, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			built, err := Build(ds.Docs, Options{Extended: extended, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}
			ix := openT(t, dir, Options{BufferPoolPages: 64})
			type query struct {
				id   string
				q    *twig.Query
				want int // -1: any number of matches but at least one
			}
			var queries []query
			for _, qs := range ds.Queries {
				queries = append(queries, query{qs.ID, qs.Query(), qs.Want})
			}
			first := ds.Docs[0]
			for _, n := range []*xmltree.Node{first.Root, first.Nodes[0]} {
				if !n.IsValue {
					queries = append(queries, query{"//" + n.Label, twig.MustParse("//" + n.Label), -1})
				}
			}
			for _, qq := range queries {
				for _, par := range []int{1, 4} {
					if err := ix.ResetIOStats(); err != nil {
						t.Fatal(err)
					}
					before := storeReads(ix)
					ms, stats, err := ix.Match(qq.q, MatchOptions{Parallelism: par})
					if errors.Is(err, ErrNeedsExtendedIndex) && !extended {
						continue
					}
					if err != nil {
						t.Fatalf("ext=%v %s: %v", extended, qq.id, err)
					}
					if qq.want >= 0 && len(ms) != qq.want || qq.want < 0 && len(ms) == 0 {
						t.Errorf("ext=%v %s par %d: %d matches, want %d", extended, qq.id, par, len(ms), qq.want)
					}
					if n := storeReads(ix) - before; n != 0 || stats.RecordFetches != 0 || stats.Candidates == 0 {
						t.Errorf("ext=%v %s par %d: %d docs.db reads, %d record fetches for %d candidates; want none",
							extended, qq.id, par, n, stats.RecordFetches, stats.Candidates)
					}
				}
			}
		}
	}
}

// An AS OF read of a superseded image refines against that image's record,
// which only the store holds: docs.db reads move. A latest read of the same
// query does not.
func TestRefinementReadsSupersededRecords(t *testing.T) {
	for _, extended := range []bool{true, false} {
		docs := parallelCorpus()[:12]
		di, err := NewDynamicIndex(docs, Options{Extended: extended, BufferPoolPages: 64}, DynamicOptions{Alpha: 4})
		if err != nil {
			t.Fatal(err)
		}
		// A first mutation gives the pre-update state a version of its own.
		if _, err := di.Delete(5); err != nil {
			t.Fatal(err)
		}
		before := di.VersionStats().Current
		if _, err := di.Update(2, xmltreetest.MustFromSExpr(2, `(a (d (e)))`)); err != nil {
			t.Fatal(err)
		}
		q := twig.MustParse(`//a/b[./c="x"]`)
		for _, tc := range []struct {
			asOf  uint64
			reads bool
		}{{0, false}, {before, true}} {
			ix := di.Index()
			if err := ix.ResetIOStats(); err != nil {
				t.Fatal(err)
			}
			r0 := storeReads(ix)
			ms, stats, err := di.Match(q, MatchOptions{AsOf: tc.asOf})
			if err != nil {
				t.Fatal(err)
			}
			old := false
			for _, m := range ms {
				old = old || m.DocID == 2
			}
			if old != tc.reads {
				t.Errorf("ext=%v AS OF %d: document 2 matched %v, want %v", extended, tc.asOf, old, tc.reads)
			}
			if moved := storeReads(ix) != r0; moved != tc.reads || (stats.RecordFetches > 0) != tc.reads {
				t.Errorf("ext=%v AS OF %d: docs.db reads moved %v (%d record fetches), want %v",
					extended, tc.asOf, moved, stats.RecordFetches, tc.reads)
			}
		}
	}
}

// A damaged record page whose documents' shapes the store has also lost is
// rebuilt from the directory's shape id, the shape tree's copy of the shape
// and the trie walk's LPS.
func TestRepairRecordFromShapeTree(t *testing.T) {
	docs := degradedDocs()
	ix, err := Build(docs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pages := recordPages(ix)
	affected := ix.Store().DocsOnPage(pages[0])
	loseStoreShapes(t, ix)
	corruptPage(t, ix, ix.Store().BufferPool().File(), pages[0])
	for _, d := range affected {
		if err := ix.VerifyDoc(d); !errors.Is(err, ErrRecordDamaged) {
			t.Fatalf("VerifyDoc(%d) = %v, want ErrRecordDamaged", d, err)
		}
		if action, err := ix.RepairDoc(d); err != nil || action != RepairRecord {
			t.Fatalf("RepairDoc(%d) = %v, %v; want RepairRecord", d, action, err)
		}
	}
	verifyAllDocs(t, ix)
	if missing := ix.store.MissingShapes(); len(missing) != 0 {
		t.Errorf("shapes %v still missing after repair", missing)
	}
	for _, d := range affected {
		doc, err := ix.ReconstructDocument(d)
		if err != nil || doc.String() != docs[d].String() {
			t.Errorf("doc %d after repair = %v, %v; want %s", d, doc, err, docs[d])
		}
	}
}

// The two copies of the shape dictionary rebuild each other: a shapes
// section that lost its shapes is restored from the shape tree, and a shape
// tree that lost its entries is rewritten from the section. Either way the
// repaired directory reopens clean and answers as before.
func TestShapeCopiesRebuildEachOther(t *testing.T) {
	ds := datagen.DBLP(1, 1)
	for _, side := range []string{"section", "tree"} {
		t.Run(side, func(t *testing.T) {
			dir := t.TempDir()
			ix, err := Build(ds.Docs, Options{Extended: true, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if ix.store.NumShapes() < 2 {
				t.Fatalf("%d shapes: too few to tell copies apart", ix.store.NumShapes())
			}
			if side == "section" {
				loseStoreShapes(t, ix)
			} else {
				all := make([]uint32, ix.NumDocs())
				for i := range all {
					all[i] = uint32(i)
				}
				dropShapeEntries(t, ix, all...)
			}
			if errs := ix.CheckShapes(); len(errs) == 0 {
				t.Fatal("CheckShapes found no damage")
			}
			lost, err := ix.RepairShapes()
			if err != nil || len(lost) != 0 {
				t.Fatalf("RepairShapes = %v, %v; want nothing lost", lost, err)
			}
			if errs := ix.CheckShapes(); len(errs) != 0 {
				t.Fatalf("after RepairShapes: %v", errs)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if errs := re.CheckShapes(); len(errs) != 0 || len(re.store.MissingShapes()) != 0 {
				t.Fatalf("reopened: %v, missing %v", errs, re.store.MissingShapes())
			}
			verifyAllDocs(t, re)
			for _, qs := range ds.Queries {
				if ms, _, err := re.Match(qs.Query(), MatchOptions{}); err != nil || len(ms) != qs.Want {
					t.Errorf("%s: %d matches, %v; want %d", qs.ID, len(ms), err, qs.Want)
				}
			}
		})
	}
}

// A shape lost from the store's copy stays repairable after a writer interns
// its skeleton anew under another id: the restored id repeats a present
// shape, and both serve their documents — the lost shape's old documents
// verify, and the directory reopens with no shape missing.
func TestLostShapeReinternedRepairs(t *testing.T) {
	dir := t.TempDir()
	docs := parallelCorpus()[:20]
	di, err := NewDynamicIndex(docs, Options{Dir: dir, Extended: true, BufferPoolPages: 64}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix := di.Index()
	loseStoreShapes(t, ix)
	lostShape := ix.store.MissingShapes()[0]
	victim := -1
	for d := 0; d < len(docs) && victim < 0; d++ {
		if id, _ := ix.store.ShapeID(uint32(d)); id == lostShape {
			victim = d
		}
	}
	if victim < 0 {
		t.Fatalf("no document has lost shape %d", lostShape)
	}
	again := docs[victim].Clone()
	again.ID = len(docs)
	if err := di.Insert(again); err != nil {
		t.Fatal(err)
	}
	if id, _ := ix.store.ShapeID(uint32(len(docs))); id == lostShape {
		t.Fatalf("the insert reused lost shape %d; the case needs a new id", id)
	}
	lost, err := ix.RepairShapes()
	if err != nil || len(lost) != 0 {
		t.Fatalf("RepairShapes = %v, %v; want nothing lost", lost, err)
	}
	if errs := ix.CheckShapes(); len(errs) != 0 {
		t.Fatalf("after RepairShapes: %v", errs)
	}
	verifyAllDocs(t, ix)
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir, Options{Extended: true})
	if errs := re.CheckShapes(); len(errs) != 0 || len(re.store.MissingShapes()) != 0 {
		t.Fatalf("reopened: %v, missing %v", errs, re.store.MissingShapes())
	}
	verifyAllDocs(t, re)
	for _, d := range []int{victim, len(docs)} {
		doc, err := re.ReconstructDocument(uint32(d))
		if err != nil || doc.String() != docs[victim].String() {
			t.Errorf("doc %d = %v, %v; want %s", d, doc, err, docs[victim])
		}
	}
}

// When both copies of one shape are damaged, exactly the documents of that
// shape are unrepairable: every other shape is restored from its surviving
// copy and every other document verifies.
func TestShapeLostInBothCopies(t *testing.T) {
	ds := datagen.DBLP(1, 1)
	ix, err := Build(ds.Docs, Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	const victimDoc = 7
	victim, _ := ix.store.ShapeID(victimDoc)
	dropShapeEntries(t, ix, victimDoc)
	loseStoreShapes(t, ix)
	lost, err := ix.RepairShapes()
	if err != nil || len(lost) != 1 || lost[0] != victim {
		t.Fatalf("RepairShapes = %v, %v; want [%d]", lost, err, victim)
	}
	for d := uint32(0); d < uint32(ix.NumDocs()); d++ {
		id, _ := ix.store.ShapeID(d)
		_, err := ix.RepairDoc(d)
		if got, want := errors.Is(err, ErrUnrepairable), id == victim; got != want {
			t.Fatalf("doc %d (shape %d): RepairDoc = %v, unrepairable %v, want %v", d, id, err, got, want)
		}
	}
}

// A power cut at any write of a dynamic insert that interns a new shape
// recovers the pre-insert or the post-insert image: the document count, the
// probe answers and the shape dictionary's two copies all agree with one of
// them.
func TestShapeInternCrashSweep(t *testing.T) {
	base := t.TempDir()
	pristine := filepath.Join(base, "pristine")
	docs := parallelCorpus()[:20]
	di, err := NewDynamicIndex(docs, Options{Dir: pristine, Extended: true, BufferPoolPages: 64}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	shapes := di.Index().store.NumShapes()
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := xmltreetest.MustFromSExpr(20, `(a (b (c "x") (c "y") (c "z")) (d (e) (e) (e) (e)))`)
	probe := []string{`//a/b/c`, `//a[./d/e]`, `//a[./b/c="z"]`}
	counts := func(t *testing.T, di *DynamicIndex) []int {
		out := make([]int, len(probe))
		for i, src := range probe {
			ms, _, err := di.Match(twig.MustParse(src), MatchOptions{})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			out[i] = len(ms)
		}
		return out
	}
	ref := filepath.Join(base, "ref")
	copyIndexDir(t, pristine, ref)
	rdi, err := OpenDynamic(ref, Options{Extended: true, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	pre := counts(t, rdi)
	if err := rdi.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	if err := rdi.Flush(); err != nil {
		t.Fatal(err)
	}
	post := counts(t, rdi)
	if rdi.Index().store.NumShapes() != shapes+1 {
		t.Fatalf("the insert interned %d shapes, want 1", rdi.Index().store.NumShapes()-shapes)
	}
	if err := rdi.Close(); err != nil {
		t.Fatal(err)
	}
	if intsEqual(pre, post) {
		t.Fatal("the insert changed no probe answer; the sweep would be vacuous")
	}

	cutDir := func(k int64) string { return filepath.Join(base, fmt.Sprintf("cut%d", k)) }
	acked := false // the insert's Flush returned before the cut
	run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
		acked = false
		copyIndexDir(t, pristine, cutDir(k))
		fdi, err := OpenDynamic(cutDir(k), Options{Extended: true, BufferPoolPages: 64, OpenFile: pagertest.FaultOpen(clock)})
		if err != nil {
			return err
		}
		if err := fdi.Insert(fresh); err != nil {
			return err
		}
		if err := fdi.Flush(); err != nil {
			return err
		}
		acked = true
		// Close writes past the commit (the journal's release), so a cut
		// there checks that the acknowledged insert is durable.
		return fdi.Close()
	}
	pagertest.Sweep(t, 3, pagertest.TearEvery(3, 509), run, func(t *testing.T, k int64) {
		rdi, err := OpenDynamic(cutDir(k), Options{Extended: true, BufferPoolPages: 64})
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		defer rdi.Close()
		got := counts(t, rdi)
		switch n := rdi.NumDocs(); {
		case acked && n != len(docs)+1:
			t.Errorf("the insert's Flush returned before the cut, but %d documents recovered", n)
		case n == len(docs) && intsEqual(got, pre):
		case n == len(docs)+1 && intsEqual(got, post):
		default:
			t.Errorf("recovered %d documents answering %v; want %d and %v or %d and %v",
				n, got, len(docs), pre, len(docs)+1, post)
		}
		if errs := rdi.Index().CheckShapes(); len(errs) != 0 {
			t.Errorf("shape copies disagree after cut %d: %v", k, errs)
		}
	})
}

// A flipped bit in a docid leaf must not make OpenDynamic fail: its replay
// reads the records, not the forest, and RepairForest rebuilds the tree from
// the records, after which the index verifies and answers as before.
func TestOpenDynamicCorruptDocidLeaf(t *testing.T) {
	dir := t.TempDir()
	docs := parallelCorpus()[:20]
	di, err := NewDynamicIndex(docs, Options{Dir: dir, Extended: true, BufferPoolPages: 64}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := twig.MustParse(`//a/b[./c="x"]`)
	want, _, err := di.Match(q, MatchOptions{})
	if err != nil || len(want) == 0 {
		t.Fatalf("probe: %d matches, %v", len(want), err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	// The docid tree's pages are the ones a scan of it pulls into the pool.
	ix, err := Open(dir, Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	bp := ix.forest.BufferPool()
	var before []bool
	for id := uint32(0); id < bp.File().NumPages(); id++ {
		before = append(before, bp.Contains(pager.PageID(id)))
	}
	if err := ix.docid.Scan(btree.KeyUint64(0), btree.KeyUint64(math.MaxUint64), true, true,
		func(_, _ []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	leaf := pager.InvalidPage
	for id, was := range before {
		if !was && bp.Contains(pager.PageID(id)) {
			leaf = pager.PageID(id) // the last one: a leaf
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if leaf == pager.InvalidPage {
		t.Fatal("the docid scan read no page")
	}
	f, err := pager.OpenOSFile(filepath.Join(dir, ForestFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := pagertest.FlipBit(f, leaf, (pager.PageHeaderSize+11)*8+2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rdi, err := OpenDynamic(dir, Options{Extended: true, BufferPoolPages: 64})
	if err != nil {
		t.Fatalf("OpenDynamic over a corrupt docid leaf: %v", err)
	}
	defer rdi.Close()
	if _, err := rdi.Index().RepairForest(); err != nil {
		t.Fatalf("RepairForest: %v", err)
	}
	verifyAllDocs(t, rdi.Index())
	got, _, err := rdi.Match(q, MatchOptions{})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("after repair: %v, %v; want %v", got, err, want)
	}
}
