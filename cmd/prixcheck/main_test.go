package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compact"
	"repro/internal/datagen"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/xmltree"
)

func buildIndexDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	docs := []*xmltree.Document{
		xmltree.MustFromSExpr(0, `(a (b (c)))`),
		xmltree.MustFromSExpr(1, `(a (d (e)))`),
	}
	ix, err := prix.Build(docs, prix.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCleanIndexExitsZero(t *testing.T) {
	dir := buildIndexDir(t)
	if got := run(dir, true); got != exitClean {
		t.Errorf("run = %d, want %d", got, exitClean)
	}
}

func TestBitFlipExitsCorrupt(t *testing.T) {
	dir := buildIndexDir(t)
	f, err := os.OpenFile(filepath.Join(dir, "docs.db"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := int64(pager.PageHeaderSize + 21)
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := run(dir, true); got != exitCorrupt {
		t.Errorf("run = %d, want %d", got, exitCorrupt)
	}
}

func TestTornTrailingPageExitsCorrupt(t *testing.T) {
	dir := buildIndexDir(t)
	// Keep only 100 bytes of seq.idx: a torn page whose lost tail held real
	// data, with no journal to roll it back. The zero-padded reconstruction
	// cannot match the stored checksum.
	if err := os.Truncate(filepath.Join(dir, "seq.idx"), 100); err != nil {
		t.Fatal(err)
	}
	if got := run(dir, true); got != exitCorrupt {
		t.Errorf("run = %d, want %d", got, exitCorrupt)
	}
}

func TestMissingDirExitsUnreadable(t *testing.T) {
	if got := run(filepath.Join(t.TempDir(), "nope"), false); got != exitUnreadable {
		t.Errorf("run = %d, want %d", got, exitUnreadable)
	}
}

// runCaptured is run with its report collected from standard output.
func runCaptured(t *testing.T, dir string) (int, string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = out
	status := run(dir, true)
	os.Stdout = saved
	out.Close()
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return status, string(text)
}

func TestCleanIndexPrintsSizeReport(t *testing.T) {
	status, out := runCaptured(t, buildIndexDir(t))
	if status != exitClean {
		t.Fatalf("run = %d, want %d", status, exitClean)
	}
	for _, want := range []string{`size: seq.idx`, `size: docs.jnl`, `size: docs.db dictionary`, `size: docs.db shapes`, `size: docs.db directory`, `size: docs.db catalogs`,
		`size: docs.db pages: 1 header, 4 meta`, `0 unreferenced`, `size: tree "post"`, `size: tree "docid"`, `size: tree "shape"`, `size: shapes 2 shapes`, `shapes: 2 shapes, both copies agree`, `leaf fill`, `per byte of XML (2 documents`} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// The size report names each tree's leaf cell format and what its leaves
// cost per entry. A bulk-built EPIndex packs 340 postings of 24 bytes into
// each 8,176-byte leaf, so only the last, partly filled leaf lifts `post`
// above 24.05 B per entry.
func TestSizeReportShowsFixedPostings(t *testing.T) {
	dir := t.TempDir()
	ix, err := prix.Build(datagen.SwissProt(1, 1).Docs, prix.Options{Extended: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	status, out := runCaptured(t, dir)
	if status != exitClean {
		t.Fatalf("run = %d, want %d:\n%s", status, exitClean, out)
	}
	post := regexp.MustCompile(`size: tree "post" .*, fixed 12\+12 cells, ([0-9.]+) B per entry`).FindStringSubmatch(out)
	if post == nil {
		t.Fatalf("report lacks fixed-width postings cells:\n%s", out)
	}
	if perEntry, err := strconv.ParseFloat(post[1], 64); err != nil || perEntry > 24.2 {
		t.Errorf("post costs %s B per entry, want <= 24.2", post[1])
	}
	if !regexp.MustCompile(`size: tree "docid" .*, slotted cells, [0-9.]+ B per entry`).MatchString(out) {
		t.Errorf("report lacks the slotted docid tree:\n%s", out)
	}
}

// A directory from before the single postings tree has no layout stamp. Its
// pages and trees are sound, so only the layout line can say what is wrong.
func TestOldLayoutExitsCorrupt(t *testing.T) {
	dir := buildIndexDir(t)
	f, err := pager.OpenOSFile(filepath.Join(dir, "docs.db"))
	if err != nil {
		t.Fatal(err)
	}
	bp := pager.NewBufferPool(f, 64)
	store, err := docstore.Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	store.SetStat("layout", 0)
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	status, out := runCaptured(t, dir)
	if status != exitCorrupt || !strings.Contains(out, "rebuild with prixload") {
		t.Errorf("run = %d, want %d with a rebuild hint:\n%s", status, exitCorrupt, out)
	}
}

// A versioned index whose forest lost the Docid index must be reported by the
// version cross-check; Forest.Tree there would create the tree and find
// nothing wrong with its zero tombstones.
func TestVersionedIndexWithoutDocidTree(t *testing.T) {
	dir := t.TempDir()
	docs := []*xmltree.Document{
		xmltree.MustFromSExpr(0, `(a (b (c)))`),
		xmltree.MustFromSExpr(1, `(a (d (e)))`),
	}
	di, err := prix.NewDynamicIndex(docs, prix.Options{Dir: dir}, prix.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	forest := di.Index().Forest()
	forest.Reset()
	if _, err := forest.Tree("post"); err != nil {
		t.Fatal(err)
	}
	if err := forest.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	status, out := runCaptured(t, dir)
	if status != exitCorrupt || !strings.Contains(out, "versions: versioned index has no docid tree") {
		t.Errorf("run = %d, want %d naming the missing docid tree:\n%s", status, exitCorrupt, out)
	}
}

// The version cross-check over an epoch a compaction built: a document updated
// before the compaction and deleted after it must have its tombstone in the
// new epoch's docid tree, or the map and the tree disagree.
func TestDeleteAfterCompactionChecksClean(t *testing.T) {
	dir := t.TempDir()
	docs := []*xmltree.Document{
		xmltree.MustFromSExpr(0, `(a (b (c)))`),
		xmltree.MustFromSExpr(1, `(a (d (e)))`),
		xmltree.MustFromSExpr(2, `(a (b (c)) (d))`),
	}
	di, err := prix.NewDynamicIndex(docs, prix.Options{Dir: dir}, prix.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := compact.OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Update(1, xmltree.MustFromSExpr(1, `(a (d (e)) (f))`)); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Compact(context.Background(), compact.CompactOptions{Retain: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	status, out := runCaptured(t, rep.Dir)
	if status != exitClean || !strings.Contains(out, "1 tombstones") || !strings.Contains(out, "invariants ok") {
		t.Errorf("run = %d, want %d with one tombstone and the version invariants ok:\n%s", status, exitClean, out)
	}
}
