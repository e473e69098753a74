package prix

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/pager/pagertest"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// dynRepairTwigs are the twigs the dynamic-repair tests hold to the oracle
// over dynbulkDocs' corpus (labels a–e, values v1/v2).
var dynRepairTwigs = []string{
	`//a/b`, `//b[./c]`, `//a[./b]/c`, `//b/c`, `//a/d`, `//e`,
	`//a[./b][./d]`, `//c[./d]`,
}

// assertDynOracle requires every dynRepairTwigs count of di to equal
// twig.CountBruteForce over docs.
func assertDynOracle(t *testing.T, label string, di *DynamicIndex, docs []*xmltree.Document) {
	t.Helper()
	for _, src := range dynRepairTwigs {
		q := twig.MustParse(src)
		ms, stats, err := di.Match(q, MatchOptions{})
		if err != nil {
			t.Fatalf("%s: %s: %v", label, src, err)
		}
		if want := twig.CountBruteForce(q, docs); len(ms) != want {
			t.Errorf("%s: %s: %d matches (degraded %v), oracle %d", label, src, len(ms), stats.Degraded, want)
		}
	}
}

func insertAll(t *testing.T, di *DynamicIndex, docs []*xmltree.Document) {
	t.Helper()
	for _, d := range docs {
		if err := di.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
}

// Index.RepairForest relabels an index exactly, whichever handle calls it:
// the DynamicIndex's own Index, or an Index from Open that the repair
// binaries use. The inserts after the rebuild chain on from the rebuilt
// forest's last label, so every twig stays oracle-exact, on the repairing
// index and after OpenDynamic reopens the rebuild.
func TestRepairForestOfDynamicIndexThenInserts(t *testing.T) {
	docs := dynbulkDocs(120, 7)
	for _, ext := range []bool{false, true} {
		t.Run(map[bool]string{false: "rp", true: "ep"}[ext], func(t *testing.T) {
			di, err := NewDynamicIndex(docs[:60], Options{Extended: ext}, DynamicOptions{Alpha: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := di.Index().RepairForest(); err != nil {
				t.Fatal(err)
			}
			assertDynOracle(t, "after the rebuild", di, docs[:60])
			insertAll(t, di, docs[60:])
			assertDynOracle(t, "after the inserts", di, docs)
			if err := di.Close(); err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			di, err = NewDynamicIndex(docs[:60], Options{Dir: dir, Extended: ext}, DynamicOptions{Alpha: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := di.Close(); err != nil {
				t.Fatal(err)
			}
			ix, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix.RepairForest(); err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			di, err = OpenDynamic(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer di.Close()
			insertAll(t, di, docs[60:])
			assertDynOracle(t, "static Open, rebuild, OpenDynamic, inserts", di, docs)
		})
	}
}

// The rebuild rewrites the forest under the repair lock alone, as a
// scrubber holding only the Index calls it: inserts, chain counts and
// queries running beside it must neither race it (make race) nor lose a
// document's postings.
func TestRepairForestConcurrentWithInserts(t *testing.T) {
	docs := dynbulkDocs(120, 7)
	di, err := NewDynamicIndex(docs[:40], Options{Extended: true}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, d := range docs[40:] {
			if err := di.Insert(d); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := di.Index().RepairForest(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		q := twig.MustParse(`//a/b`)
		for i := 0; i < 40; i++ {
			if _, err := di.ChainedDocs(); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := di.Match(q, MatchOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	assertDynOracle(t, "after concurrent rebuilds and inserts", di, docs)
}

// DynamicIndex.Close commits what Flush commits: inserts closed without a
// Flush reopen with their records, catalogs and postings.
func TestDynamicCloseWithoutFlushReopens(t *testing.T) {
	docs := dynbulkDocs(60, 11)
	for _, ext := range []bool{false, true} {
		t.Run(map[bool]string{false: "rp", true: "ep"}[ext], func(t *testing.T) {
			dir := t.TempDir()
			di, err := NewDynamicIndex(docs[:30], Options{Dir: dir, Extended: ext}, DynamicOptions{Alpha: 4})
			if err != nil {
				t.Fatal(err)
			}
			insertAll(t, di, docs[30:45])
			if err := di.Close(); err != nil {
				t.Fatal(err)
			}
			di, err = OpenDynamic(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer di.Close()
			if n := di.NumDocs(); n != 45 {
				t.Fatalf("reopened with %d documents, want 45", n)
			}
			assertDynOracle(t, "reopened", di, docs[:45])
			insertAll(t, di, docs[45:])
			assertDynOracle(t, "reopened, then inserts", di, docs)
		})
	}
}

// Per-document repair of a dynamic index re-inserts a lost docid entry at
// the terminal the trie walk finds and writes no posting, so the next chain
// label does not move and the inserts after it stay oracle-exact.
func TestRepairDocOfDynamicIndexThenInserts(t *testing.T) {
	docs := dynbulkDocs(120, 7)
	di, err := NewDynamicIndex(docs[:60], Options{Extended: true}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	ix := di.Index()
	const victim = 17
	left, err := ix.terminalLeftOf(victim)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ix.docid.Delete(btree.KeyUint64(left), btree.DocIDValue(victim, 0)); err != nil || !ok {
		t.Fatalf("deleting the docid entry: %v, %v", ok, err)
	}
	ix.hotInvalidateDocid()
	if err := ix.VerifyDoc(victim); !errors.Is(err, ErrPostingsDamaged) {
		t.Fatalf("VerifyDoc = %v, want ErrPostingsDamaged", err)
	}
	next := ix.nextLabel()
	if action, err := ix.RepairDoc(victim); err != nil || action != RepairPostings {
		t.Fatalf("RepairDoc = %v, %v; want %v", action, err, RepairPostings)
	}
	if after := ix.nextLabel(); after != next {
		t.Fatalf("RepairDoc wrote postings: the next label is %d, was %d", after, next)
	}
	verifyAllDocs(t, ix)
	assertDynOracle(t, "after RepairDoc", di, docs[:60])
	insertAll(t, di, docs[60:])
	// A chained document whose first symbol heads other paths under the
	// root too: the walk follows each, and the entry goes back at its own
	// chain's end, where the version map has none to name.
	insertAll(t, di, docs[100:101])
	for _, victim := range []uint32{100, 120} {
		left, err := ix.terminalLeftOf(victim)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := ix.docid.Delete(btree.KeyUint64(left), btree.DocIDValue(victim, 0)); err != nil || !ok {
			t.Fatalf("deleting the docid entry of %d: %v, %v", victim, ok, err)
		}
		ix.hotInvalidateDocid()
		if err := ix.VerifyDoc(victim); !errors.Is(err, ErrPostingsDamaged) {
			t.Fatalf("VerifyDoc(%d) = %v, want ErrPostingsDamaged", victim, err)
		}
		if action, err := ix.RepairDoc(victim); err != nil || action != RepairPostings {
			t.Fatalf("RepairDoc(%d) = %v, %v; want %v", victim, action, err, RepairPostings)
		}
	}
	verifyAllDocs(t, ix)
	assertDynOracle(t, "after RepairDoc and inserts", di, append(append([]*xmltree.Document{}, docs...), docs[100]))
}

// A versioned index's legacy record that still reads but fails its Prüfer
// round trip is skipped (and quarantined) by the forest rebuild. The index
// once replayed its labeler from the records at every open, and had to skip
// the same record; now nothing is replayed, and the inserts after the reopen
// must chain on from the rebuilt forest's own last label, which counts no
// posting of the skipped record.
func TestVersionedReplaySkipsWhatTheRebuildSkipped(t *testing.T) {
	docs := dynbulkDocs(120, 7)
	const deleted, damaged = 0, 5
	dir := t.TempDir()
	di, err := NewDynamicIndex(docs[:60], Options{Dir: dir}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.Delete(deleted); err != nil { // the version map starts here
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	editStore(t, dir, func(store *docstore.Store) {
		rec, err := store.GetAny(damaged)
		if err != nil {
			t.Fatal(err)
		}
		rec.Leaves = rec.Leaves[1:] // the sequences intact, one leaf lost
		if err := store.Rewrite(rec); err != nil {
			t.Fatal(err)
		}
		if rec, err = store.GetAny(damaged); err != nil || checkRecord(store.Dict(), rec) == nil {
			t.Fatalf("the damaged record reads (%v) and passes its round trip", err)
		}
	})
	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if skipped, err := ix.RepairForest(); err != nil || len(skipped) != 1 || skipped[0] != damaged {
		t.Fatalf("RepairForest skipped %v, %v; want [%d]", skipped, err, damaged)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	di, err = OpenDynamic(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	insertAll(t, di, docs[60:])
	live := append(docs[deleted+1:damaged:damaged], docs[damaged+1:]...) // a copy: the cap ends at damaged
	assertDynOracle(t, "rebuild, OpenDynamic, inserts", di, live)
}

// A power cut at any write of a dynamic index's forest rebuild recovers the
// pre-rebuild or the post-rebuild image, and either reopens with
// OpenDynamic, answers oracle-exact and takes inserts oracle-exact: the
// rebuild's own commit carries the postings count the next chain starts
// from.
func TestCrashSweepOverDynamicForestRebuild(t *testing.T) {
	base := t.TempDir()
	pristine := filepath.Join(base, "pristine")
	docs := dynbulkDocs(36, 7)
	seed, more := docs[:24], docs[24:]
	opts := Options{Extended: true, BufferPoolPages: 16}
	di, err := NewDynamicIndex(seed[:12], Options{Dir: pristine, Extended: true, BufferPoolPages: 16}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, di, seed[12:])
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}

	files := func(dir string) [2][]byte {
		var out [2][]byte
		for i, name := range []string{ForestFileName, DocsFileName} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = data
		}
		return out
	}
	pre := files(pristine)
	rebuild := func(dir string, o Options) error {
		ix, err := Open(dir, o)
		if err != nil {
			return err
		}
		if _, err := ix.RepairForest(); err != nil {
			return err
		}
		return ix.Close()
	}
	ref := filepath.Join(base, "ref")
	copyIndexDir(t, pristine, ref)
	if err := rebuild(ref, opts); err != nil {
		t.Fatal(err)
	}
	post := files(ref)
	same := func(a, b [2][]byte) bool { return bytes.Equal(a[0], b[0]) && bytes.Equal(a[1], b[1]) }
	if same(pre, post) {
		t.Fatal("the rebuild changed no file; the sweep would be vacuous")
	}

	cutDir := func(k int64) string { return filepath.Join(base, fmt.Sprintf("cut%d", k)) }
	run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
		copyIndexDir(t, pristine, cutDir(k))
		o := opts
		o.OpenFile = pagertest.FaultOpen(clock)
		return rebuild(cutDir(k), o)
	}
	pagertest.Sweep(t, 10, pagertest.TearEvery(3, 509), run, func(t *testing.T, k int64) {
		rdi, err := OpenDynamic(cutDir(k), opts)
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		defer rdi.Close()
		if got := files(cutDir(k)); !same(got, pre) && !same(got, post) {
			t.Errorf("recovered files match neither the pre- nor the post-rebuild image")
		}
		assertDynOracle(t, "recovered", rdi, seed)
		insertAll(t, rdi, more)
		assertDynOracle(t, "recovered, then inserts", rdi, docs)
	})
}
