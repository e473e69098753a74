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
// leaves as fixed-width ones, after a reopen, and after a compaction that
// rewrites the postings into packed leaves and takes inserts of its own.
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
	type matcher interface {
		Match(*twig.Query, prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error)
	}
	answers := func(stage string, m matcher) {
		t.Helper()
		matched := 0
		for asOf, corpus := range map[uint64][]*xmltree.Document{0: latest, 1: v1, 2: v2} {
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

	// 1. Open it as it was written.
	di, err := prix.OpenDynamic(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loaded := postLeaves("opened", di, "fixed 12+12")
	answers("opened", di)

	// 2. Insert the next 20 documents of each generator: the fixed-width
	// leaves split as fixed-width leaves; then reopen.
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
	answers("inserted", di)
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
	answers("reopened", di)
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}

	// 3. Compact it, keeping every tombstone: the new epoch's postings are
	// packed, and it takes inserts.
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	if _, err := root.Compact(context.Background(), CompactOptions{Retain: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	postLeaves("compacted", root.Index(), "packed ")
	answers("compacted", root)
	c := dblp[41].Clone()
	c.Number()
	if err := root.Insert(c); err != nil {
		t.Fatal(err)
	}
	c = c.Clone()
	c.ID = len(latest)
	latest = append(latest, c)
	postLeaves("compacted and inserted", root.Index(), "packed ")
	answers("compacted and inserted", root)
}
