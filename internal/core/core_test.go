package core_test

import (
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/twig"
)

func parseAll(t *testing.T, srcs ...string) []*core.Document {
	t.Helper()
	var docs []*core.Document
	for i, s := range srcs {
		d, err := core.ParseXMLString(i, s)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	return docs
}

func TestFacadeEndToEnd(t *testing.T) {
	docs := parseAll(t,
		`<lib><book><author>Gray</author></book></lib>`,
		`<lib><book><author>Moon</author></book></lib>`,
	)
	ix, err := core.BuildIndex(docs, core.Options{Extended: true, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.ParseQuery(`//book[./author="Gray"]`)
	if err != nil {
		t.Fatal(err)
	}
	ms, stats, err := ix.Match(q, core.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].DocID != 0 {
		t.Errorf("matches = %+v", ms)
	}
	if stats.Elapsed <= 0 {
		t.Error("stats not populated")
	}
}

func TestFacadePersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	docs := parseAll(t, `<a><b>v</b></a>`)
	if _, err := core.BuildIndex(docs, core.Options{Dir: dir, BufferPoolPages: 32}); err != nil {
		t.Fatal(err)
	}
	ix, err := core.OpenIndex(dir, core.Options{BufferPoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := core.ParseQuery(`//a/b`)
	ms, _, err := ix.Match(q, core.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("matches after reopen = %d", len(ms))
	}
	// The index is lossless: the document reconstructs exactly.
	doc, err := ix.ReconstructDocument(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.String(), `(b "v")`) {
		t.Errorf("reconstructed doc = %s", doc)
	}
}

func TestParseErrorsPropagate(t *testing.T) {
	if _, err := core.ParseXMLString(0, `<a><b></a>`); err == nil {
		t.Error("malformed XML accepted")
	}
	if _, err := core.ParseQuery(`not an xpath`); err == nil {
		t.Error("malformed query accepted")
	}
}

// Example demonstrates the three-call workflow: parse, index, match.
func Example() {
	doc, err := core.ParseXMLString(0,
		`<inproceedings><author>Jim Gray</author><year>1990</year></inproceedings>`)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := core.BuildIndex([]*core.Document{doc}, core.Options{Extended: true})
	if err != nil {
		log.Fatal(err)
	}
	q, err := core.ParseQuery(`//inproceedings[./author="Jim Gray"][./year="1990"]`)
	if err != nil {
		log.Fatal(err)
	}
	matches, _, err := ix.Match(q, core.MatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(matches), "match in document", matches[0].DocID)
	// Output: 1 match in document 0
}

func TestDynamicFacade(t *testing.T) {
	docs := parseAll(t,
		`<a><b>v</b></a>`,
		`<a><c/></a>`,
	)
	di, err := core.NewDynamicIndex(docs, core.Options{BufferPoolPages: 32}, core.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := core.ParseXMLString(0, `<a><b>v</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Insert(extra); err != nil {
		t.Fatal(err)
	}
	q2, _ := core.ParseQuery(`//a/b`)
	ms, _, err := di.Index().Match(q2, core.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Errorf("dynamic matches = %d, want 2", len(ms))
	}
}

// A dynamic index is committed when NewDynamicIndex returns: closed without
// a Flush, its directory reopens (read-only, and insertable as a compaction
// root) and answers as the brute-force oracle does.
func TestNewDynamicIndexReopensWithoutFlush(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dyn")
	docs := parseAll(t,
		`<a><b>v</b><c/></a>`,
		`<a><c/><b>w</b></a>`,
		`<r><a><b>v</b></a></r>`,
	)
	di, err := core.NewDynamicIndex(docs, core.Options{Dir: dir, BufferPoolPages: 32}, core.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := core.OpenIndex(dir, core.Options{BufferPoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	root, err := core.OpenCompactRoot(dir, core.Options{BufferPoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	for _, src := range []string{`//a/b`, `//a[./b="v"]`, `//a/c`, `//r/a/b`} {
		q, err := core.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, d := range docs {
			want += len(twig.MatchBruteForce(q, d))
		}
		if want == 0 {
			t.Fatalf("%s: the oracle finds nothing; the query checks nothing", src)
		}
		for name, s := range map[string]core.QuerySource{"index": ix, "root": root} {
			ms, _, err := s.Match(q, core.MatchOptions{})
			if err != nil {
				t.Fatalf("%s %s: %v", name, src, err)
			}
			if len(ms) != want {
				t.Errorf("%s %s: %d matches, brute force %d", name, src, len(ms), want)
			}
		}
	}
}
