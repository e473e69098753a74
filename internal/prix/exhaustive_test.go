package prix

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func TestRiskOfFalseDismissal(t *testing.T) {
	cases := map[string]bool{
		`//a/b`:            false,
		`//a[./b]/c`:       false,
		`//a[.//b]/c`:      false,
		`//a[.//b]//c`:     true,
		`//a[.//b][.//c]`:  true,
		`//a/*/b//c`:       true,
		`//a[./b//d][./c]`: false,
	}
	for src, want := range cases {
		if got := RiskOfFalseDismissal(twig.MustParse(src)); got != want {
			t.Errorf("RiskOfFalseDismissal(%s) = %v, want %v", src, got, want)
		}
	}
}

// MatchExhaustive closes the known completeness corner: on the document
// class where Match legitimately under-reports (DESIGN.md), the exhaustive
// path must agree exactly with brute force.
func TestExhaustiveClosesWildcardCorner(t *testing.T) {
	// The counterexample found by the property suite.
	doc := xmltreetest.MustFromSExpr(0,
		`(a (a (c (d) (c (d (a (a (c) (c "v1")))) (d)) (b "v2")) (d (b "v2") (c "v2"))) (d (c)) (b (d)) (d "v1"))`)
	q := twig.MustParse(`//a[.//b]//c`)
	want := len(twig.MatchBruteForce(q, doc))
	for _, extended := range []bool{false, true} {
		ix := build(t, extended, doc)
		got, _, err := ix.MatchExhaustive(q, MatchOptions{})
		if err != nil {
			t.Fatalf("extended=%v: %v", extended, err)
		}
		if len(got) != want {
			t.Errorf("extended=%v: exhaustive = %d, brute force = %d", extended, len(got), want)
		}
	}
}

func TestExhaustiveAgreesWithBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	queries := []string{
		`//a[.//b]//c`, `//a[.//b][.//c]`, `//a//b//c`, `//b[.//a]//d`,
		`//a[./b]//c`, `//a//b`, `//a[./b]/c`,
	}
	for trial := 0; trial < 15; trial++ {
		var docs []*xmltree.Document
		for d := 0; d < 6; d++ {
			docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
				Nodes: 3 + rng.Intn(25), Alphabet: []string{"a", "b", "c", "d"},
				MaxFanout: 4, ValueProb: 0.3, Values: []string{"v1", "v2"},
			}))
		}
		rp := build(t, false, docs...)
		ep := build(t, true, docs...)
		for _, qs := range queries {
			q := twig.MustParse(qs)
			want := twig.CountBruteForce(q, docs)
			for name, ix := range map[string]*Index{"rp": rp, "ep": ep} {
				got, _, err := ix.MatchExhaustive(q, MatchOptions{})
				if err != nil {
					t.Fatalf("trial %d %s %s: %v", trial, name, qs, err)
				}
				if len(got) != want {
					for _, d := range docs {
						t.Logf("doc %d: %s", d.ID, d)
					}
					t.Fatalf("trial %d %s: %s = %d, brute force %d", trial, name, qs, len(got), want)
				}
			}
		}
	}
}

func TestExhaustiveUnordered(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(0, `(a (c (x)) (b (y)))`)
	ix := build(t, true, doc)
	q := twig.MustParse(`//a[.//b]//c`) // ordered: b before c fails; unordered matches
	ms, _, err := ix.MatchExhaustive(q, MatchOptions{Unordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("unordered exhaustive = %d, want 1", len(ms))
	}
}

func BenchmarkExhaustiveVsIndexOnly(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var docs []*xmltree.Document
	for i := 0; i < 300; i++ {
		docs = append(docs, xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes: 25, Alphabet: []string{"a", "b", "c", "d", "e"}, MaxFanout: 4,
		}))
	}
	ix, err := Build(docs, Options{Extended: true, BufferPoolPages: 512})
	if err != nil {
		b.Fatal(err)
	}
	q := twig.MustParse(`//a[.//b]//c`)
	for _, mode := range []string{"index", "exhaustive"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if mode == "index" {
					_, _, err = ix.Match(q, MatchOptions{})
				} else {
					_, _, err = ix.MatchExhaustive(q, MatchOptions{})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	_ = fmt.Sprint()
}
