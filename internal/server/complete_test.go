package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// TestPlantedQueriesComplete: every planted query returns its planted count
// through the HTTP service — Q6, whose two // branches under Entry are split
// and joined, included — and so does `//a[.//b]//c` on DESIGN.md's
// interleaving document ("Known algorithmic corner"), where the descent alone
// misses occurrences.
func TestPlantedQueriesComplete(t *testing.T) {
	check := func(docs []*xmltree.Document, want map[string]int) {
		t.Helper()
		ix, err := prix.Build(docs, prix.Options{Extended: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		ts := httptest.NewServer(New(ix, Config{}).Handler())
		defer ts.Close()
		for q, n := range want {
			code, qr, raw := doQuery(t, ts.Client(), ts.URL, q)
			if code != http.StatusOK || qr.Count != n {
				t.Errorf("%s: %d, count %d, want %d: %s", q, code, qr.Count, n, raw)
			}
			if qr.Query != twig.MustParse(q).String() {
				t.Errorf("%s: reply echoes %q, canonical form %q", q, qr.Query, twig.MustParse(q).String())
			}
		}
	}
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		for _, qs := range ds.Queries {
			want[qs.XPath] = qs.Want
		}
		check(ds.Docs, want)
	}
	doc := xmltreetest.MustFromSExpr(0,
		`(a (a (c (d) (c (d (a (a (c) (c "v1")))) (d)) (b "v2")) (d (b "v2") (c "v2"))) (d (c)) (b (d)) (d "v1"))`)
	q := `//a[.//b]//c`
	check([]*xmltree.Document{doc}, map[string]int{q: twig.CountBruteForce(twig.MustParse(q), []*xmltree.Document{doc})})
}
