package compact

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// testdata/fixedpost is a dynamic index directory written before dynamic
// postings trees had packed leaves (its README says how): fixed 12+12-byte
// cells, an update and a delete in its version history. Pages name their own
// codec, so it needs no layout change: it must answer the DBLP and SWISSPROT
// queries exactly as the brute-force oracle does over its documents, at
// every version, when opened, after inserts that split its fixed-width
// leaves as fixed-width ones and a delete, after a reopen, and after a
// compaction that rewrites the postings and the docid tree into packed
// leaves and takes an insert and a delete of its own. Its docid tree is
// slotted, with the delete's tombstone in it, and stays slotted until the
// compaction.
func TestDynamicFixedCellsStillServe(t *testing.T) {
	fixture := filepath.Join("testdata", "fixedpost")
	dir := t.TempDir()
	for _, name := range []string{prix.ForestFileName, prix.DocsFileName} {
		data, err := os.ReadFile(filepath.Join(fixture, "index", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	parse := func(name string, id int) *xmltree.Document {
		f, err := os.Open(filepath.Join(fixture, "xml", name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		doc, err := xmltree.Parse(id, f, xmltree.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	var docs []*xmltree.Document
	for id := 0; id < 40; id++ {
		docs = append(docs, parse(fmt.Sprintf("doc-%02d.xml", id), id))
	}
	var queries []*twig.Query
	for _, name := range []string{"dblp", "swissprot"} {
		ds, err := datagen.ByName(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range ds.Queries {
			if q := qs.Query(); !prix.RiskOfFalseDismissal(q) {
				queries = append(queries, q)
			}
		}
	}

	// The corpus at each version: v1 is after the update of document 3,
	// v2 after the delete of document 8; inserts that follow are versions
	// of their own.
	v1 := append([]*xmltree.Document(nil), docs...)
	v1[3] = parse("update-03.xml", 3)
	v2 := append(append([]*xmltree.Document(nil), v1[:8]...), v1[9:]...)
	latest := v2
	versions := map[uint64][]*xmltree.Document{1: v1, 2: v2}
	// del deletes the document the corpus holds at index i, and keeps the
	// corpus before it as the version before the delete's.
	del := func(d interface {
		Delete(uint32) (uint64, error)
	}, i int) {
		t.Helper()
		v, err := d.Delete(uint32(latest[i].ID))
		if err != nil {
			t.Fatal(err)
		}
		versions[v-1] = latest
		latest = append(append([]*xmltree.Document(nil), latest[:i]...), latest[i+1:]...)
	}
	type matcher interface {
		Match(*twig.Query, prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error)
	}
	answers := func(stage string, m matcher) {
		t.Helper()
		matched := 0
		for asOf, corpus := range versions {
			for _, q := range queries {
				ms, _, err := m.Match(q, prix.MatchOptions{AsOf: asOf})
				if err != nil {
					t.Fatalf("%s: %s as of %d: %v", stage, q, asOf, err)
				}
				if want := twig.CountBruteForce(q, corpus); len(ms) != want {
					t.Errorf("%s: %s as of %d: %d matches, oracle %d", stage, q, asOf, len(ms), want)
				}
				matched += len(ms)
			}
		}
		if matched == 0 {
			t.Fatalf("%s: no query matches the fixture", stage)
		}
	}
	answersNow := func(stage string, m matcher) {
		t.Helper()
		versions[0] = latest
		answers(stage, m)
	}
	postLeaves := func(stage string, di *prix.DynamicIndex, format string) int {
		t.Helper()
		forest := di.Index().Forest()
		if errs := forest.Check(); len(errs) > 0 {
			t.Fatalf("%s: %v", stage, errs[0])
		}
		s, err := forest.Lookup("post").Shape()
		if err != nil || !strings.HasPrefix(s.LeafFormat, format) {
			t.Fatalf("%s: post leaves %+v (%v), want %q", stage, s, err, format)
		}
		return s.Pages[len(s.Pages)-1]
	}
	docidLeaves := func(stage string, di *prix.DynamicIndex, format string) {
		t.Helper()
		s, err := di.Index().Forest().Lookup("docid").Shape()
		if err != nil || !strings.HasPrefix(s.LeafFormat, format) {
			t.Fatalf("%s: docid leaves %+v (%v), want %q", stage, s, err, format)
		}
	}

	// 1. Open it as it was written.
	di, err := prix.OpenDynamic(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loaded := postLeaves("opened", di, "fixed 12+12")
	docidLeaves("opened", di, "slotted")
	answersNow("opened", di)

	// 2. Insert the next 20 documents of each generator: the fixed-width
	// leaves split as fixed-width leaves, the docid tree stays slotted; then
	// delete a document, a tombstone in the slotted docid tree, and reopen.
	dblp, sp := datagen.DBLP(1, 1).Docs, datagen.SwissProt(1, 1).Docs
	for i := 21; i < 41; i++ {
		for _, d := range []*xmltree.Document{dblp[i], sp[i-1]} {
			c := d.Clone()
			c.Number()
			if err := di.Insert(c); err != nil {
				t.Fatal(err)
			}
			c = c.Clone()
			c.ID = len(latest)
			latest = append(latest, c)
		}
	}
	if n := postLeaves("inserted", di, "fixed 12+12"); n <= loaded {
		t.Fatalf("40 inserts split no fixed-width leaf: %d leaves, %d before", n, loaded)
	}
	docidLeaves("inserted", di, "slotted")
	answersNow("inserted", di)
	del(di, 12)
	docidLeaves("deleted", di, "slotted")
	answersNow("deleted", di)
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	if di, err = prix.OpenDynamic(dir, prix.Options{}); err != nil {
		t.Fatal(err)
	}
	postLeaves("reopened", di, "fixed 12+12")
	docidLeaves("reopened", di, "slotted")
	answersNow("reopened", di)
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}

	// 3. Compact it, keeping every tombstone: the new epoch's postings and
	// docid entries are packed, and it takes an insert and a delete.
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	if _, err := root.Compact(context.Background(), CompactOptions{Retain: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	postLeaves("compacted", root.Index(), "packed ")
	docidLeaves("compacted", root.Index(), "packed ")
	if n := len(docidTombstones(t, root)); n != 2 {
		t.Fatalf("compacted: %d tombstones in the packed docid tree, want the 2 deletes'", n)
	}
	answersNow("compacted", root)
	c := dblp[41].Clone()
	c.Number()
	if err := root.Insert(c); err != nil {
		t.Fatal(err)
	}
	c = c.Clone()
	c.ID = len(latest)
	latest = append(latest, c)
	del(root, 5)
	postLeaves("compacted, inserted and deleted", root.Index(), "packed ")
	docidLeaves("compacted, inserted and deleted", root.Index(), "packed ")
	if n := len(docidTombstones(t, root)); n != 3 {
		t.Fatalf("compacted and deleted: %d tombstones in the packed docid tree, want 3", n)
	}
	answersNow("compacted, inserted and deleted", root)
}
