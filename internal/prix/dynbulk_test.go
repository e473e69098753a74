package prix

import (
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

// TestOpenDynamicReplay: a dynamic index closed on disk reopens with nothing
// replayed — answering identically, and still accepting inserts, whose
// chains continue from the label after the last posting on disk.
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
	// Still insertable: chains continue where the closed index left off.
	extra := dynbulkDocs(6, 99)
	for _, doc := range extra {
		if err := re.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	if re.NumDocs() != len(docs)+len(extra) {
		t.Fatalf("docs after reopened inserts = %d", re.NumDocs())
	}
	all := append(append([]*xmltree.Document{}, docs...), extra...)
	for _, qs := range dynbulkQueries {
		want := twig.CountBruteForce(twig.MustParse(qs), all)
		if got := len(matchSet(t, re.Index(), qs)); got != want {
			t.Fatalf("%s after reopened inserts: %d matches, brute force %d", qs, got, want)
		}
	}
	if n, err := re.ChainedDocs(); err != nil || n != len(docs)-8+len(extra) {
		t.Fatalf("ChainedDocs = %d, %v; want %d", n, err, len(docs)-8+len(extra))
	}
}

// TestOpenDynamicAcceptsStatic: every index accepts writes. A Build output
// reopens insertable, and its inserts chain on from its last exact label.
func TestOpenDynamicAcceptsStatic(t *testing.T) {
	dir := t.TempDir()
	docs := dynbulkDocs(12, 3)
	b, err := NewBuilder(Options{Dir: dir, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[:5] {
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
	di, err := OpenDynamic(dir, Options{})
	if err != nil {
		t.Fatalf("OpenDynamic on a Build output: %v", err)
	}
	defer di.Close()
	for _, doc := range docs[5:] {
		if err := di.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	for _, qs := range dynbulkQueries {
		want := twig.CountBruteForce(twig.MustParse(qs), docs)
		if got := len(matchSet(t, di.Index(), qs)); got != want {
			t.Fatalf("%s: %d matches, brute force %d", qs, got, want)
		}
	}
}

// bulkLoadDynamic builds an insertable index from docs the way a compaction
// does: a streamed exact build finalized with room for writes.
func bulkLoadDynamic(t testing.TB, opts Options, bo BulkOptions, docs []*xmltree.Document) *DynamicIndex {
	t.Helper()
	b, err := NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id, doc := range docs {
		ds, err := Transform(uint32(id), doc, opts.Extended)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddSeq(ds); err != nil {
			t.Fatal(err)
		}
	}
	di, err := b.FinalizeDynamic(bo, 0)
	if err != nil {
		t.Fatal(err)
	}
	return di
}

// TestBulkLoadDynamicEqualsInserted: bulk-loading a document stream yields
// an index that answers exactly like one grown by per-document Insert, and
// both keep answering identically after further inserts — the property the
// compaction swap relies on.
func TestBulkLoadDynamicEqualsInserted(t *testing.T) {
	docs := dynbulkDocs(30, 11)
	twin, err := NewDynamicIndex(docs[:10], Options{BufferPoolPages: 64}, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[10:] {
		if err := twin.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	bulk := bulkLoadDynamic(t, Options{BufferPoolPages: 64}, BulkOptions{MemBudget: 16 << 10}, docs)
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
}

// TestBulkLoadDynamicDeterministic: the same stream under the same budget
// produces byte-identical page files — what lets a crashed compaction
// rebuild from scratch and still converge on the manifest's bytes.
func TestBulkLoadDynamicDeterministic(t *testing.T) {
	docs := dynbulkDocs(25, 23)
	build := func(dir string) {
		di := bulkLoadDynamic(t, Options{Dir: dir, BufferPoolPages: 64}, BulkOptions{MemBudget: 16 << 10}, docs)
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
// per document. AddSeq interns into one reused record, the Builder's trie
// lives in slabs, and the sorter is sized once from the trie's counts; what is
// left is the fixed cost of an index (pools, trees, dictionaries) spread over
// the 2,000 documents.
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
	load := func() {
		b, err := NewBuilder(Options{Extended: true, BufferPoolPages: 4096})
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range seqs {
			if err := b.AddSeq(ds); err != nil {
				t.Fatal(err)
			}
		}
		di, err := b.FinalizeDynamic(BulkOptions{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		di.Close()
	}
	perDoc := testing.AllocsPerRun(2, load) / float64(len(docs))
	t.Logf("insertable bulk load: %.2f objects a document over %d documents", perDoc, len(docs))
	if perDoc > 1 {
		t.Fatalf("insertable bulk load allocates %.2f objects a document, want <= 1", perDoc)
	}
}
