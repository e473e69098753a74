package prix

import (
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/twig"
	"repro/internal/xmltree"
)

func dualDocs() []*xmltree.Document {
	return []*xmltree.Document{
		xmltree.MustFromSExpr(0, `(Entry (Org "Piroplasmida") (Ref (Author "A")) (Cited (from "x")))`),
		xmltree.MustFromSExpr(1, `(Entry (Org "Other") (Ref (Author "B")))`),
		xmltree.MustFromSExpr(2, `(a (b (c)) (d))`),
	}
}

func TestDualRouting(t *testing.T) {
	d, err := BuildDual(dualDocs(), Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query    string
		extended bool
	}{
		{`//a[./b/c]/d`, false},                                  // element-only, exact leaves -> RP
		{`//Entry[./Org="Piroplasmida"]`, true},                  // value -> EP
		{`//Entry[./Ref]//from`, true},                           // wildcard leaf edge -> EP
		{`//Entry//Ref/Author`, false},                           // wildcard above internal node -> RP
		{`//Entry[./Org="Piroplasmida"][.//Author]//from`, true}, // Q6 shape -> EP
	}
	for _, c := range cases {
		got := d.Choose(twig.MustParse(c.query))
		if got.Extended() != c.extended {
			t.Errorf("Choose(%s): extended = %v, want %v", c.query, got.Extended(), c.extended)
		}
	}
}

func TestDualMatchesAgreeWithBruteForce(t *testing.T) {
	docs := dualDocs()
	d, err := BuildDual(docs, Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`//a[./b/c]/d`,
		`//Entry[./Org="Piroplasmida"]`,
		`//Entry[./Ref]//from`,
		`//Entry//Ref/Author`,
		`//Entry[./Org="Piroplasmida"][.//Author]//from`,
	}
	for _, qs := range queries {
		q := twig.MustParse(qs)
		want := twig.CountBruteForce(q, docs)
		ms, _, err := d.Match(q, MatchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if len(ms) != want {
			t.Errorf("%s: dual = %d, brute force = %d", qs, len(ms), want)
		}
		ex, _, err := d.MatchExhaustive(q, MatchOptions{})
		if err != nil {
			t.Fatalf("%s exhaustive: %v", qs, err)
		}
		if len(ex) != want {
			t.Errorf("%s: exhaustive dual = %d, brute force = %d", qs, len(ex), want)
		}
	}
}

func TestDualPersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dual")
	if _, err := BuildDual(dualDocs(), Options{Dir: dir, BufferPoolPages: 32}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDual(dir, Options{BufferPoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	if d.RP().Extended() || !d.EP().Extended() {
		t.Error("halves mixed up after reopen")
	}
	ms, _, err := d.Match(twig.MustParse(`//Entry[./Org="Piroplasmida"]`), MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("matches after reopen = %d", len(ms))
	}
}

// randomTwigSource writes a random query in the parser's grammar over the
// parallelCorpus alphabet: child, descendant and star steps, nested
// predicates, value tests. Some outputs are not valid queries (a trailing or
// branching star); callers skip what Parse rejects.
func randomTwigSource(rng *rand.Rand) string {
	var b strings.Builder
	sep := func() {
		if rng.Intn(3) == 0 {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
	}
	value := func() { b.WriteString(`="` + []string{"x", "y"}[rng.Intn(2)] + `"`) }
	var relpath func(depth int)
	relpath = func(depth int) {
		for steps := 1 + rng.Intn(3); steps > 0; steps-- {
			if rng.Intn(6) == 0 {
				b.WriteString("*")
			} else {
				b.WriteString([]string{"a", "b", "c", "d", "e"}[rng.Intn(5)])
				for preds := rng.Intn(3 - depth); preds > 0; preds-- {
					if rng.Intn(8) == 0 {
						b.WriteString("[text()")
						value()
					} else {
						b.WriteString("[.")
						sep()
						relpath(depth + 1)
						if rng.Intn(5) == 0 {
							value()
						}
					}
					b.WriteString("]")
				}
			}
			if steps > 1 {
				sep()
			}
		}
	}
	sep()
	relpath(0)
	return b.String()
}

// TestDualRoutingMatchesCompile: Choose's rule 2 is the predicate RP compile
// refuses on, so a query routed to the RP half is never answered with
// ErrNeedsExtendedIndex — which is why Match runs the routed half alone
// instead of also starting the EP half for every query with a wildcard edge.
// Checked over the query parser's fuzz seeds (twig's parseSeeds, which this
// package cannot import), every fixed shape of the parity and differential
// suites, and random twigs.
func TestDualRoutingMatchesCompile(t *testing.T) {
	d, err := BuildDual(parallelCorpus(), Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		`//a`, `/a/b/c`, `//inproceedings[./author="Jim Gray"][./year="1990"]`,
		`//Entry[./Org="Piroplasmida"][.//Author]//from`, `//a[./b/c]/d`, `//a[text()="v"]`,
		`/a/*/b`, `//a//*/b`, `/*/b`, ``, `//`, `a`, `//a[`, `//a[./b="unterminated`, `//a]`,
		`//*[./b]`, "//a\x00b", `//a[.//b="x"]//c[./d]/e`, "//a[./b=\"q\\\"uote\\n\u00e9\x01\"]",
	}
	for _, qc := range parallelQueries {
		srcs = append(srcs, qc.src)
	}
	for _, sh := range diffShapes {
		srcs = append(srcs, sh.src)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 4000; i++ {
		srcs = append(srcs, randomTwigSource(rng))
	}
	routedRP, wildcardRP := 0, 0
	for _, src := range srcs {
		q, err := twig.Parse(src)
		if err != nil || d.Choose(q) != d.RP() {
			continue
		}
		routedRP++
		if strings.Contains(q.String()[2:], "//") || strings.Contains(q.String(), "*") {
			wildcardRP++
		}
		var p plan
		if _, err := d.RP().compile(q, &p); errors.Is(err, ErrNeedsExtendedIndex) {
			t.Errorf("%s: routed to the RP half, whose compile refuses it: %v", q, err)
		}
	}
	if routedRP < 500 || wildcardRP < 100 {
		t.Fatalf("only %d queries routed to RP, %d of them with a wildcard edge", routedRP, wildcardRP)
	}
}
