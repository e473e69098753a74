package prix

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func dynbulkDocs(n int, seed int64) []*xmltree.Document {
	rng := rand.New(rand.NewSource(seed))
	var docs []*xmltree.Document
	for d := 0; d < n; d++ {
		docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
			Nodes: 3 + rng.Intn(16), Alphabet: []string{"a", "b", "c", "d", "e"},
			MaxFanout: 4, ValueProb: 0.2, Values: []string{"v1", "v2"},
		}))
	}
	return docs
}

var dynbulkQueries = []string{`//a/b`, `//a[./b]/c`, `//b/c`, `//a/d`, `//e`}

// matchSet renders a query's results into a comparable form.
func matchSet(t *testing.T, ix *Index, qs string) []Match {
	t.Helper()
	ms, _, err := ix.Match(twig.MustParse(qs), MatchOptions{})
	if err != nil {
		t.Fatalf("%s: %v", qs, err)
	}
	return ms
}

func sameMatches(t *testing.T, label, qs string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %s: %d vs %d matches", label, qs, len(want), len(got))
	}
	for i := range want {
		if want[i].DocID != got[i].DocID || want[i].Root != got[i].Root {
			t.Fatalf("%s: %s: match %d is %v vs %v", label, qs, i, want[i], got[i])
		}
	}
}

// TestOpenDynamicReplay: a dynamic index closed on disk reopens with its
// labeler replayed from the stored records and persisted stats — answering
// identically, and still accepting inserts without underflow.
func TestOpenDynamicReplay(t *testing.T) {
	dir := t.TempDir()
	docs := dynbulkDocs(24, 5)
	di, err := NewDynamicIndex(docs[:8], Options{Dir: dir, BufferPoolPages: 64}, DynamicOptions{Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[8:] {
		if err := di.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]Match{}
	for _, qs := range dynbulkQueries {
		want[qs] = matchSet(t, di.Index(), qs)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDynamic(dir, Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumDocs() != len(docs) {
		t.Fatalf("reopened docs = %d, want %d", re.NumDocs(), len(docs))
	}
	for _, qs := range dynbulkQueries {
		sameMatches(t, "reopened", qs, want[qs], matchSet(t, re.Index(), qs))
	}
	// Still insertable: the replayed labeler continues where it left off.
	extra := dynbulkDocs(6, 99)
	for _, doc := range extra {
		if err := re.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	if re.NumDocs() != len(docs)+len(extra) {
		t.Fatalf("docs after reopened inserts = %d", re.NumDocs())
	}
	if re.Underflows() != 0 {
		t.Fatalf("underflows after reopen = %d", re.Underflows())
	}
}

// TestOpenDynamicRejectsStatic: a bulk-built index has no labeler state to
// replay; OpenDynamic must refuse with ErrNotDynamic, not guess.
func TestOpenDynamicRejectsStatic(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBuilder(Options{Dir: dir, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range dynbulkDocs(5, 3) {
		if err := b.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDynamic(dir, Options{}); !errors.Is(err, ErrNotDynamic) {
		t.Fatalf("OpenDynamic on a static index: err = %v, want ErrNotDynamic", err)
	}
}

// replaySeqs adapts a document slice to BulkLoadDynamic's source callback.
func replaySeqs(docs []*xmltree.Document, extended bool) func(fn func(*DocSeq) error) error {
	return func(fn func(*DocSeq) error) error {
		for id, doc := range docs {
			ds, err := Transform(uint32(id), doc, extended)
			if err != nil {
				return err
			}
			if err := fn(ds); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestBulkLoadDynamicEqualsInserted: bulk-loading a document stream yields
// an index that answers exactly like one grown by per-document Insert, and
// both keep answering identically after further inserts — the property the
// compaction swap relies on.
func TestBulkLoadDynamicEqualsInserted(t *testing.T) {
	docs := dynbulkDocs(30, 11)
	dopts := DynamicOptions{Alpha: 3}
	twin, err := NewDynamicIndex(docs[:10], Options{BufferPoolPages: 64}, dopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[10:] {
		if err := twin.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	// Match the labeler shape the compactor pins in its manifest: same
	// alpha/spread, preparatory pass over the full stream.
	bulk, err := BulkLoadDynamic(Options{BufferPoolPages: 64}, dopts, BulkOptions{MemBudget: 16 << 10}, 0, replaySeqs(docs, false))
	if err != nil {
		t.Fatal(err)
	}
	if bulk.NumDocs() != twin.NumDocs() {
		t.Fatalf("bulk docs = %d, twin = %d", bulk.NumDocs(), twin.NumDocs())
	}
	for _, qs := range dynbulkQueries {
		sameMatches(t, "bulk vs inserted", qs, matchSet(t, twin.Index(), qs), matchSet(t, bulk.Index(), qs))
	}
	for _, doc := range dynbulkDocs(8, 42) {
		if err := twin.Insert(doc); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	for _, qs := range dynbulkQueries {
		sameMatches(t, "after post-bulk inserts", qs, matchSet(t, twin.Index(), qs), matchSet(t, bulk.Index(), qs))
	}
	if bulk.Underflows() != 0 {
		t.Fatalf("bulk underflows = %d", bulk.Underflows())
	}
}

// TestBulkLoadDynamicDeterministic: the same stream under the same budget
// produces byte-identical page files — what lets a crashed compaction
// rebuild from scratch and still converge on the manifest's bytes.
func TestBulkLoadDynamicDeterministic(t *testing.T) {
	docs := dynbulkDocs(25, 23)
	build := func(dir string) {
		di, err := BulkLoadDynamic(Options{Dir: dir, BufferPoolPages: 64},
			DynamicOptions{Alpha: 3}, BulkOptions{MemBudget: 16 << 10}, 0, replaySeqs(docs, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := di.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := di.Close(); err != nil {
			t.Fatal(err)
		}
	}
	d1, d2 := t.TempDir(), t.TempDir()
	build(d1)
	build(d2)
	for _, name := range []string{ForestFileName, DocsFileName} {
		b1, err := os.ReadFile(filepath.Join(d1, name))
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(d2, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("%s differs across identical bulk loads (%d vs %d bytes)", name, len(b1), len(b2))
		}
	}
}

// TestBulkLoadDynamicAllocs bounds what a compaction's bulk load allocates
// per document (≈ 0.4 objects, 10.9 when each pass interned into fresh
// slices). Both passes intern into one reused record, the labeler reports the
// nodes it created in a buffer it keeps, Finalize walks the prefix trie with
// one child buffer and the sorter is sized once from the prepare pass's
// counts; what is left is the fixed cost of an index (pools, trees,
// dictionaries) spread over the 2,000 documents.
func TestBulkLoadDynamicAllocs(t *testing.T) {
	docs := datagen.DBLP(1, 1).Docs
	seqs := make([]*DocSeq, len(docs))
	for id, doc := range docs {
		ds, err := Transform(uint32(id), doc, true)
		if err != nil {
			t.Fatal(err)
		}
		seqs[id] = ds
	}
	source := func(fn func(*DocSeq) error) error {
		for _, ds := range seqs {
			if err := fn(ds); err != nil {
				return err
			}
		}
		return nil
	}
	load := func() {
		di, err := BulkLoadDynamic(Options{Extended: true, BufferPoolPages: 4096}, DynamicOptions{Alpha: 4}, BulkOptions{}, 0, source)
		if err != nil {
			t.Fatal(err)
		}
		di.Close()
	}
	perDoc := testing.AllocsPerRun(2, load) / float64(len(docs))
	t.Logf("BulkLoadDynamic: %.2f objects a document over %d documents", perDoc, len(docs))
	if perDoc > 1 {
		t.Fatalf("BulkLoadDynamic allocates %.2f objects a document, want <= 1", perDoc)
	}
}
