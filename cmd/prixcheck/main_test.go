package main

import (
	"context"
	"fmt"
	"math/rand"
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
	"repro/internal/pager/pagertest"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func buildIndexDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)))`),
		xmltreetest.MustFromSExpr(1, `(a (d (e)))`),
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
	for _, want := range []string{`size: seq.idx`, `size: prix.jnl`, `size: docs.db dictionary`, `size: docs.db shapes`, `size: docs.db directory`, `size: docs.db catalogs`,
		`size: docs.db pages: 1 header, 4 meta`, `0 unreferenced`, `size: tree "post"`, `size: tree "docid"`, `size: tree "shape"`, `size: shapes 2 shapes`, `shapes: 2 shapes, both copies agree`, `leaf fill`, `per byte of XML (2 documents`} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// The size report names each tree's leaf cell format and what its leaves
// cost per entry. A bulk-built EPIndex packs its dense-labeled postings into
// bit-packed cells: a scale-1 SWISSPROT one measured 10+15+9+7-bit cells at
// 4.4 B per entry, where fixed 12+12 cells cost 24.05. A dynamic one built
// over half the documents, the other half inserted as chains, keeps dense
// labels: 10+15+8+13-bit cells at 7.4 B per entry (15 leaves 60.5 % full;
// its inserts widen the cells of the leaves they land in, and split them).
// The spread labels of the labeler chains replaced took 9+64+61+13-bit cells
// at 24.1 B per entry. The docid tree packs too: the 600 terminals fit one
// leaf on both sides, in 15+10+0-bit cells (static; LeftPos, docID, no
// tombstone) and 15+17+0-bit ones (dynamic, whose leaves keep room for
// tombstones), 13.6 B per entry where slotted cells took two leaves (27.3 B)
// and three (40.9 B).
func TestSizeReportShowsPackedPostings(t *testing.T) {
	docs := datagen.SwissProt(1, 1).Docs
	for _, tc := range []struct {
		name         string
		build        func(dir string) error
		maxLeft      int
		maxPerEntry  float64
		maxDocidBits int
	}{
		{"static", func(dir string) error {
			ix, err := prix.Build(docs, prix.Options{Extended: true, Dir: dir})
			if err != nil {
				return err
			}
			return ix.Close()
		}, 17, 4.6, 27}, // dense labels: Left deltas fit the index's node count
		{"dynamic", func(dir string) error {
			di, err := prix.NewDynamicIndex(docs[:len(docs)/2], prix.Options{Extended: true, Dir: dir}, prix.DynamicOptions{Alpha: 4})
			if err != nil {
				return err
			}
			for _, d := range docs[len(docs)/2:] {
				if err := di.Insert(d); err != nil {
					return err
				}
			}
			if err := di.Flush(); err != nil {
				return err
			}
			return di.Close()
		}, 15, 8, 32}, // chains keep labels dense: no wider Left deltas
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.build(dir); err != nil {
				t.Fatal(err)
			}
			status, out := runCaptured(t, dir)
			if status != exitClean {
				t.Fatalf("run = %d, want %d:\n%s", status, exitClean, out)
			}
			post := regexp.MustCompile(`size: tree "post" .*, packed [0-9]+\+([0-9]+)\+[0-9]+\+[0-9]+-bit cells, ([0-9.]+) B per entry`).FindStringSubmatch(out)
			if post == nil {
				t.Fatalf("report lacks packed postings cells:\n%s", out)
			}
			t.Logf("%s", post[0])
			if left, err := strconv.Atoi(post[1]); err != nil || left > tc.maxLeft {
				t.Errorf("post packs Left in %s bits, want <= %d", post[1], tc.maxLeft)
			}
			if perEntry, err := strconv.ParseFloat(post[2], 64); err != nil || perEntry > tc.maxPerEntry {
				t.Errorf("post costs %s B per entry, want <= %g", post[2], tc.maxPerEntry)
			}
			docid := regexp.MustCompile(`size: tree "docid" .*, packed ([0-9]+)\+([0-9]+)\+([0-9]+)-bit cells, ([0-9.]+) B per entry`).FindStringSubmatch(out)
			if docid == nil {
				t.Fatalf("report lacks packed docid cells:\n%s", out)
			}
			t.Logf("%s", docid[0])
			cell := 0
			for _, w := range docid[1:4] {
				n, _ := strconv.Atoi(w)
				cell += n
			}
			if cell > tc.maxDocidBits {
				t.Errorf("docid cells are %d bits wide, want <= %d", cell, tc.maxDocidBits)
			}
			if perEntry, err := strconv.ParseFloat(docid[4], 64); err != nil || perEntry > 13.7 {
				t.Errorf("docid costs %s B per entry, want <= 13.7: its 600 entries in one leaf", docid[4])
			}
		})
	}
}

// A directory from before the single postings tree has no layout stamp, and
// one written before packed-only postings and Docid trees has stamp 3. Their
// pages and trees are sound, so only the layout line can say what is wrong,
// and it names the stamp.
func TestOldLayoutExitsCorrupt(t *testing.T) {
	for _, stamp := range []int64{0, 3} {
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
		store.SetStat("layout", stamp)
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := bp.Close(); err != nil {
			t.Fatal(err)
		}
		status, out := runCaptured(t, dir)
		if status != exitCorrupt || !strings.Contains(out, "rebuild with prixload") || !strings.Contains(out, fmt.Sprintf("layout %d, this build reads 4", stamp)) {
			t.Errorf("stamp %d: run = %d, want %d with the stamp and a rebuild hint:\n%s", stamp, status, exitCorrupt, out)
		}
		// The stamp is checked first: no tree or record check runs on a
		// layout this build cannot read, so none reports, clean or not.
		for _, check := range []string{"invariant violations", "invariants ok", "records ok", "docid scan"} {
			if strings.Contains(out, check) {
				t.Errorf("stamp %d: a check ran on a refused layout (%q):\n%s", stamp, check, out)
			}
		}
	}
}

// A versioned index whose forest lost the Docid index must be reported by the
// version cross-check; Forest.Tree there would create the tree and find
// nothing wrong with its zero tombstones.
func TestVersionedIndexWithoutDocidTree(t *testing.T) {
	dir := t.TempDir()
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)))`),
		xmltreetest.MustFromSExpr(1, `(a (d (e)))`),
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
		xmltreetest.MustFromSExpr(0, `(a (b (c)))`),
		xmltreetest.MustFromSExpr(1, `(a (d (e)))`),
		xmltreetest.MustFromSExpr(2, `(a (b (c)) (d))`),
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
	if _, err := r.Update(1, xmltreetest.MustFromSExpr(1, `(a (d (e)) (f))`)); err != nil {
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

// A power cut mid-commit leaves prix.jnl active: prixcheck rolls both files
// back in memory, says so, and checks the rolled-back images clean — without
// touching the directory, so a second run finds the journal still active.
func TestActiveJournalRolledBackInMemory(t *testing.T) {
	base := t.TempDir()
	pristine := filepath.Join(base, "pristine")
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)))`),
		xmltreetest.MustFromSExpr(1, `(a (d (e)))`),
	}
	di, err := prix.NewDynamicIndex(docs, prix.Options{Dir: pristine}, prix.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	deleteWithCut := func(dir string, clock *pagertest.PowerClock) error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{prix.ForestFileName, prix.DocsFileName, prix.JournalFileName} {
			data, err := os.ReadFile(filepath.Join(pristine, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		di, err := prix.OpenDynamic(dir, prix.Options{OpenFile: pagertest.FaultOpen(clock)})
		if err != nil {
			return err
		}
		_, err = di.Delete(1)
		return err
	}
	counting := pagertest.NewPowerClock(0)
	if err := deleteWithCut(filepath.Join(base, "count"), counting); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= counting.Writes(); k++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", k))
		deleteWithCut(dir, pagertest.NewPowerClock(k))
		status, out := runCaptured(t, dir)
		if !strings.Contains(out, "prix.jnl: active transaction, rolled back in memory") {
			continue
		}
		if status != exitClean {
			t.Fatalf("cut %d: run = %d over the rolled-back copies, want %d:\n%s", k, status, exitClean, out)
		}
		if _, again := runCaptured(t, dir); !strings.Contains(again, "prix.jnl: active transaction") {
			t.Fatalf("cut %d: the first run changed the directory; the second finds no active journal:\n%s", k, again)
		}
		return
	}
	t.Fatalf("no cut of the delete's %d write points left the journal active", counting.Writes())
}

// prixcheck -repair on a dynamic directory whose forest page fails its
// checksum rebuilds the forest with exact labels: OpenDynamic then takes
// inserts, chained on from the rebuilt forest's last label, that stay
// oracle-exact.
func TestRepairDynamicDirThenInserts(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	var docs []*xmltree.Document
	for d := 0; d < 120; d++ {
		docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
			Nodes: 3 + rng.Intn(16), Alphabet: []string{"a", "b", "c", "d", "e"},
			MaxFanout: 4, ValueProb: 0.2, Values: []string{"v1", "v2"},
		}))
	}
	di, err := prix.NewDynamicIndex(docs[:60], prix.Options{Dir: dir}, prix.DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := pager.OpenOSFile(filepath.Join(dir, prix.ForestFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := pagertest.FlipBit(f, pager.PageID(f.NumPages()-1), (pager.PageHeaderSize+11)*8+2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if status, out := runCaptured(t, dir); status != exitCorrupt {
		t.Fatalf("run = %d, want %d:\n%s", status, exitCorrupt, out)
	}
	if err := runRepair(dir); err != nil {
		t.Fatal(err)
	}
	if status, out := runCaptured(t, dir); status != exitClean {
		t.Fatalf("run after repair = %d, want %d:\n%s", status, exitClean, out)
	}

	di, err = prix.OpenDynamic(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	for _, d := range docs[60:] {
		if err := di.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{`//a/b`, `//b[./c]`, `//a[./b]/c`, `//b/c`, `//a/d`, `//e`, `//a[./b][./d]`, `//c[./d]`} {
		q := twig.MustParse(src)
		ms, _, err := di.Match(q, prix.MatchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if want := twig.CountBruteForce(q, docs); len(ms) != want {
			t.Errorf("%s: %d matches, oracle %d", src, len(ms), want)
		}
	}
}
