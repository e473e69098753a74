package prix

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/twig"
	"repro/internal/xmltree/xmltreetest"
)

// corruptPage flips one payload bit of page id through the File interface
// (works for both MemFile-backed and OS-backed indexes), then drops both
// buffer pools so reads observe the on-disk damage rather than cached
// frames.
func corruptPage(t *testing.T, ix *Index, f pager.File, id pager.PageID) {
	t.Helper()
	if err := pagertest.FlipBit(f, id, (pager.PageHeaderSize+11)*8+2); err != nil {
		t.Fatal(err)
	}
	if err := ix.ResetIOStats(); err != nil {
		t.Fatal(err)
	}
}

// recordPages returns every docstore page holding record bytes, ascending.
func recordPages(ix *Index) []pager.PageID {
	var out []pager.PageID
	f := ix.Store().BufferPool().File()
	for id := uint32(0); id < f.NumPages(); id++ {
		if len(ix.Store().DocsOnPage(pager.PageID(id))) > 0 {
			out = append(out, pager.PageID(id))
		}
	}
	return out
}

// verifyRawPages checks every stored page of both index files against its
// checksum, bypassing the pools.
func verifyRawPages(t *testing.T, ix *Index) {
	t.Helper()
	for _, f := range []pager.File{ix.Store().BufferPool().File(), ix.Forest().BufferPool().File()} {
		buf := make([]byte, pager.PageSize)
		for id := uint32(0); id < f.NumPages(); id++ {
			if err := f.ReadPage(pager.PageID(id), buf); err != nil {
				t.Fatalf("page %d: %v", id, err)
			}
			if err := pager.VerifyPage(pager.PageID(id), buf); err != nil {
				t.Errorf("page %d still corrupt after repair: %v", id, err)
			}
		}
	}
}

func verifyAllDocs(t *testing.T, ix *Index) {
	t.Helper()
	for id := 0; id < ix.NumDocs(); id++ {
		if err := ix.VerifyDoc(uint32(id)); err != nil {
			t.Errorf("doc %d fails verification: %v", id, err)
		}
	}
	if errs := ix.CheckForest(); len(errs) != 0 {
		t.Errorf("forest invariants violated: %v", errs)
	}
}

func matchCount(t *testing.T, ix *Index, q string) (int, bool) {
	t.Helper()
	ms, stats, err := ix.Match(twig.MustParse(q), MatchOptions{})
	if err != nil {
		t.Fatalf("Match(%s): %v", q, err)
	}
	return len(ms), stats.Degraded
}

// A freshly built index deep-verifies clean on every document and every
// forest invariant.
func TestVerifyDocCleanIndex(t *testing.T) {
	ix, err := Build(degradedDocs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifyAllDocs(t, ix)
	// RepairDoc on a healthy document is a no-op that clears quarantine.
	ix.Store().Quarantine(0)
	action, err := ix.RepairDoc(0)
	if err != nil || action != RepairNone {
		t.Fatalf("RepairDoc(healthy) = %v, %v; want RepairNone, nil", action, err)
	}
	if ix.Store().IsQuarantined(0) {
		t.Error("healthy document still quarantined after RepairDoc")
	}
}

// Record-side repair: a flipped bit in a record page is classified as
// ErrRecordDamaged and RepairDoc rewrites the record from the shape its
// directory entry names plus the trie path, byte-for-byte reconstructible.
func TestRepairRecordFromSidecar(t *testing.T) {
	docs := degradedDocs()
	ix, err := Build(docs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(docs))
	for i, d := range docs {
		want[i] = d.String()
	}
	pages := recordPages(ix)
	if len(pages) == 0 {
		t.Fatal("no record pages")
	}
	affected := ix.Store().DocsOnPage(pages[0])
	corruptPage(t, ix, ix.Store().BufferPool().File(), pages[0])

	for _, d := range affected {
		err := ix.VerifyDoc(d)
		if !errors.Is(err, ErrRecordDamaged) {
			t.Fatalf("VerifyDoc(%d) = %v, want ErrRecordDamaged", d, err)
		}
		action, rerr := ix.RepairDoc(d)
		if rerr != nil {
			t.Fatalf("RepairDoc(%d): %v", d, rerr)
		}
		if action != RepairRecord {
			t.Fatalf("RepairDoc(%d) action = %v, want RepairRecord", d, action)
		}
	}
	verifyAllDocs(t, ix)
	for _, d := range affected {
		doc, err := ix.ReconstructDocument(d)
		if err != nil {
			t.Fatalf("reconstruct %d after repair: %v", d, err)
		}
		if doc.String() != want[d] {
			t.Errorf("doc %d after repair = %s, want %s", d, doc.String(), want[d])
		}
	}
	if n, deg := matchCount(t, ix, `//a/b`); n != 2 || deg {
		t.Errorf("post-repair //a/b = %d matches (degraded=%v), want 2 full", n, deg)
	}
	// The old record bytes are garbage now; the sweep zeroes their page.
	if n, err := ix.SweepStorePages(); err != nil {
		t.Fatal(err)
	} else if n == 0 {
		t.Error("sweep repaired no pages, corrupt orphan left behind")
	}
	verifyRawPages(t, ix)
}

// Postings-side repair: a missing Docid entry is patched back from the
// healthy record.
func TestRepairMissingDocidEntry(t *testing.T) {
	ix, err := Build(degradedDocs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ix.store.GetAny(1)
	if err != nil {
		t.Fatal(err)
	}
	left, err := ix.walkPostings(rec)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ix.docid.Delete(btree.KeyUint64(left), btree.DocIDValue(1, 0)); err != nil || !ok {
		t.Fatalf("deleting docid entry: %v %v", ok, err)
	}
	err = ix.VerifyDoc(1)
	if !errors.Is(err, ErrPostingsDamaged) {
		t.Fatalf("VerifyDoc = %v, want ErrPostingsDamaged", err)
	}
	action, err := ix.RepairDoc(1)
	if err != nil || action != RepairPostings {
		t.Fatalf("RepairDoc = %v, %v; want RepairPostings, nil", action, err)
	}
	verifyAllDocs(t, ix)
}

// dropShapeEntries deletes the shape-tree copy of the shapes of docs.
func dropShapeEntries(t *testing.T, ix *Index, docs ...uint32) {
	t.Helper()
	sc := ix.forest.Lookup(shapeTreeName)
	if sc == nil {
		t.Fatal("no shape tree")
	}
	for _, d := range docs {
		id, _ := ix.store.ShapeID(d)
		key := shapeKey(id, 0)
		vals, err := sc.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if _, err := sc.Delete(key, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// loseStoreShapes damages the store's copy of the shape dictionary: it
// corrupts the head page of the shapes section and reopens the store over the
// same pool, which loads every shape touching that page as missing.
func loseStoreShapes(t *testing.T, ix *Index) {
	t.Helper()
	if err := ix.store.Flush(); err != nil {
		t.Fatal(err)
	}
	var head pager.PageID
	for _, sec := range ix.store.MetaSections() {
		if sec.Name == "shapes" {
			head = sec.Head
		}
	}
	corruptPage(t, ix, ix.store.BufferPool().File(), head)
	st, err := docstore.Open(ix.store.BufferPool())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.MissingShapes()) == 0 {
		t.Fatal("no shape lost from the store's copy")
	}
	ix.store = st
}

// Postings-side repair: a deleted shape-tree entry is rewritten from the
// store's copy of the shape.
func TestRepairDamagedSidecar(t *testing.T) {
	ix, err := Build(degradedDocs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dropShapeEntries(t, ix, 2)
	err = ix.VerifyDoc(2)
	if !errors.Is(err, ErrPostingsDamaged) {
		t.Fatalf("VerifyDoc = %v, want ErrPostingsDamaged", err)
	}
	action, err := ix.RepairDoc(2)
	if err != nil || action != RepairPostings {
		t.Fatalf("RepairDoc = %v, %v; want RepairPostings, nil", action, err)
	}
	verifyAllDocs(t, ix)
}

// When both the record and both copies of its shape are gone the document
// is beyond online repair: RepairDoc must say so with ErrUnrepairable, and a
// forest rebuild must quarantine (not silently drop) the document.
func TestRepairUnrepairableBothSides(t *testing.T) {
	ix, err := Build(degradedDocs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pages := recordPages(ix)
	affected := ix.Store().DocsOnPage(pages[0])
	// Kill both copies of every affected doc's shape, then the record page.
	dropShapeEntries(t, ix, affected...)
	loseStoreShapes(t, ix)
	corruptPage(t, ix, ix.Store().BufferPool().File(), pages[0])

	d := affected[0]
	if _, err := ix.RepairDoc(d); !errors.Is(err, ErrUnrepairable) {
		t.Fatalf("RepairDoc = %v, want ErrUnrepairable", err)
	}
	skipped, err := ix.RepairForest()
	if err != nil {
		t.Fatalf("RepairForest: %v", err)
	}
	found := map[uint32]bool{}
	for _, s := range skipped {
		found[s] = true
	}
	for _, d := range affected {
		if !found[d] {
			t.Errorf("doc %d lost both copies but was not reported skipped", d)
		}
		if !ix.Store().IsQuarantined(d) {
			t.Errorf("doc %d lost both copies but is not quarantined", d)
		}
	}
}

// Forest repair: flip a bit in each seq.idx page of an on-disk index in
// turn; either Open fails with the typed corruption error, or a full
// RepairForest brings every document and every page back to clean.
func TestRepairForestAfterTrieDamage(t *testing.T) {
	probe := t.TempDir()
	ix, err := Build(degradedDocs(), Options{Dir: probe})
	if err != nil {
		t.Fatal(err)
	}
	numPages := int(ix.Forest().BufferPool().File().NumPages())
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if numPages < 3 {
		t.Fatalf("seq.idx has only %d pages", numPages)
	}

	healed := 0
	for page := 0; page < numPages; page++ {
		dir := t.TempDir()
		bix, err := Build(degradedDocs(), Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := bix.Close(); err != nil {
			t.Fatal(err)
		}
		flipByteInPage(t, filepath.Join(dir, "seq.idx"), page)

		ix, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, pager.ErrCorrupt) {
				t.Errorf("page %d: Open failed untyped: %v", page, err)
			}
			continue
		}
		skipped, err := ix.RepairForest()
		if err != nil {
			t.Errorf("page %d: RepairForest: %v", page, err)
			ix.Close()
			continue
		}
		if len(skipped) != 0 {
			t.Errorf("page %d: RepairForest skipped %v, records were intact", page, skipped)
		}
		verifyAllDocs(t, ix)
		if n, deg := matchCount(t, ix, `//a/b`); n != 2 || deg {
			t.Errorf("page %d: post-rebuild //a/b = %d (degraded=%v), want 2 full", page, n, deg)
		}
		verifyRawPages(t, ix)
		healed++
		ix.Close()
	}
	if healed == 0 {
		t.Error("no forest page flip was repairable: rebuild path untested")
	}
}

// Index.RepairForest on a DynamicIndex's Index replaces the labeler
// alongside the postings, so inserts keep working after the repair — and
// the rebuild's commit records the labeler's replay parameters, so they
// keep working after a close and OpenDynamic too.
func TestDynamicRepairForest(t *testing.T) {
	dir := t.TempDir()
	di, err := NewDynamicIndex(degradedDocs(), Options{Dir: dir}, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Insert(xmltreetest.MustFromSExpr(3, `(a (b (c)))`)); err != nil {
		t.Fatal(err)
	}
	ix := di.Index()
	f := ix.Forest().BufferPool().File()
	if err := ix.Forest().Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the last forest page: tree structure, never the page-0 meta.
	corruptPage(t, ix, f, pager.PageID(f.NumPages()-1))

	if _, err := ix.RepairForest(); err != nil {
		t.Fatalf("Index.RepairForest: %v", err)
	}
	verifyAllDocs(t, ix)
	ms, _, err := di.Match(twig.MustParse(`//a/b`), MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Errorf("post-rebuild //a/b = %d matches, want 3", len(ms))
	}
	if err := di.Insert(xmltreetest.MustFromSExpr(4, `(a (b (c)) (d))`)); err != nil {
		t.Fatalf("insert after rebuild: %v", err)
	}
	ms, _, err = di.Match(twig.MustParse(`//a/b`), MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Errorf("//a/b after post-rebuild insert = %d matches, want 4", len(ms))
	}
	verifyAllDocs(t, ix)

	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	di, err = OpenDynamic(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	docs := append(degradedDocs(),
		xmltreetest.MustFromSExpr(3, `(a (b (c)))`),
		xmltreetest.MustFromSExpr(4, `(a (b (c)) (d))`))
	more := dynbulkDocs(40, 3)
	insertAll(t, di, more)
	assertDynOracle(t, "rebuild, close, OpenDynamic, inserts", di, append(docs, more...))
}

// A rebuild folds version history like a compaction does: a document updated
// before the rebuild and deleted after it must find its rebuilt terminal in
// its carried interval, or the delete writes no tombstone.
func TestVersionDeleteAfterRebuildWritesTombstone(t *testing.T) {
	di, err := NewDynamicIndex(degradedDocs(), Options{}, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.Update(1, xmltreetest.MustFromSExpr(1, `(a (b (c)) (e))`)); err != nil {
		t.Fatal(err)
	}
	if _, err := di.Index().RepairForest(); err != nil {
		t.Fatal(err)
	}
	v, err := di.Delete(1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	err = di.Index().docid.ScanDocIDs(nil, nil, true, true, func(_ uint64, id uint32, tomb uint64) bool {
		if id == 1 && tomb == v {
			found = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("no tombstone for document 1 at version %d in the docid tree", v)
	}
	if ms, _, err := di.Match(twig.MustParse(`//a/e`), MatchOptions{}); err != nil || len(ms) != 0 {
		t.Fatalf("deleted document still matches //a/e: %d matches, err %v", len(ms), err)
	}
}

// Snapshot and restore close the repair loop for both-copies-gone damage:
// the snapshot is cut consistent, refused while damage exists, and a
// restore replaces the index wholesale.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dir, snap := t.TempDir(), filepath.Join(t.TempDir(), "snap")
	ix, err := Build(degradedDocs(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Snapshot(snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// Damage both redundant copies of the docs on one record page.
	pages := recordPages(ix)
	affected := ix.Store().DocsOnPage(pages[0])
	dropShapeEntries(t, ix, affected...)
	if err := ix.forest.Flush(); err != nil {
		t.Fatal(err)
	}
	loseStoreShapes(t, ix)
	corruptPage(t, ix, ix.Store().BufferPool().File(), pages[0])
	if _, err := ix.RepairDoc(affected[0]); !errors.Is(err, ErrUnrepairable) {
		t.Fatalf("RepairDoc = %v, want ErrUnrepairable", err)
	}
	// A snapshot of a damaged index must be refused, not taken.
	if err := ix.Snapshot(filepath.Join(t.TempDir(), "bad")); err == nil {
		t.Error("Snapshot of damaged index succeeded; must refuse")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	if err := RestoreSnapshot(dir, snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	ix, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after restore: %v", err)
	}
	defer ix.Close()
	verifyAllDocs(t, ix)
	if n, deg := matchCount(t, ix, `//a/b`); n != 2 || deg {
		t.Errorf("post-restore //a/b = %d (degraded=%v), want 2 full", n, deg)
	}
	verifyRawPages(t, ix)
}

// RestoreSnapshot must refuse a snapshot that is itself damaged, without
// touching the live index.
func TestRestoreRefusesDamagedSnapshot(t *testing.T) {
	dir, snap := t.TempDir(), filepath.Join(t.TempDir(), "snap")
	ix, err := Build(degradedDocs(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	flipByteInPage(t, filepath.Join(snap, "docs.db"), 0)
	before, err := os.ReadFile(filepath.Join(dir, "docs.db"))
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreSnapshot(dir, snap); err == nil {
		t.Fatal("restore of damaged snapshot succeeded")
	}
	after, err := os.ReadFile(filepath.Join(dir, "docs.db"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("failed restore modified the live index")
	}
}

// Snapshot is cut at a commit point while queries keep running: concurrent
// readers never block it and the snapshot opens as a full, clean index.
func TestSnapshotDuringQueries(t *testing.T) {
	ix, err := Build(degradedDocs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := twig.MustParse(`//a/b`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ms, _, err := ix.Match(q, MatchOptions{WarmCache: true})
				if err != nil {
					t.Errorf("query during snapshot: %v", err)
					return
				}
				if len(ms) != 2 {
					t.Errorf("query during snapshot: %d matches, want 2", len(ms))
					return
				}
			}
		}()
	}
	snap := filepath.Join(t.TempDir(), "snap")
	if err := ix.Snapshot(snap); err != nil {
		t.Fatalf("Snapshot under query load: %v", err)
	}
	close(stop)
	wg.Wait()

	restored := t.TempDir()
	if err := RestoreSnapshot(restored, snap); err != nil {
		t.Fatal(err)
	}
	rix, err := Open(restored, Options{})
	if err != nil {
		t.Fatalf("Open restored snapshot: %v", err)
	}
	defer rix.Close()
	verifyAllDocs(t, rix)
	if n, deg := matchCount(t, rix, `//a/b`); n != 2 || deg {
		t.Errorf("snapshot index //a/b = %d (degraded=%v), want 2 full", n, deg)
	}
}
