package prix

import (
	"testing"

	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func TestBuilderStreaming(t *testing.T) {
	b, err := NewBuilder(Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := b.Add(xmltreetest.MustFromSExpr(i, `(a (b (c)) (d))`)); err != nil {
			t.Fatal(err)
		}
	}
	if b.nextID != 30 {
		t.Errorf("staged %d documents, want 30", b.nextID)
	}
	ix, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	ms := mustMatch(t, ix, `//a[./b/c]/d`, MatchOptions{})
	if len(ms) != 30 {
		t.Errorf("matches = %d, want 30", len(ms))
	}
	// Builder is single-shot.
	if err := b.Add(xmltreetest.MustFromSExpr(31, `(a)`)); err == nil {
		t.Error("Add after Finalize accepted")
	}
	if _, err := b.Finalize(); err == nil {
		t.Error("second Finalize accepted")
	}
}

func TestBuilderEquivalentToBuild(t *testing.T) {
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)) (d))`),
		xmltreetest.MustFromSExpr(1, `(a (b (x)))`),
	}
	built := build(t, false, docs...)
	b, err := NewBuilder(Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := b.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`//a/b`, `//a[./b/c]/d`, `//b/x`} {
		a := mustMatch(t, built, q, MatchOptions{})
		s := mustMatch(t, streamed, q, MatchOptions{})
		if len(a) != len(s) {
			t.Errorf("%s: built=%d streamed=%d", q, len(a), len(s))
		}
	}
}

func TestSingleNodeQueries(t *testing.T) {
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (a)) (c "a"))`),
		xmltreetest.MustFromSExpr(1, `(b (a))`),
	}
	for _, extended := range []bool{false, true} {
		ix := build(t, extended, docs...)
		// //a: three element nodes labeled a (value "a" must not count).
		ms := mustMatch(t, ix, `//a`, MatchOptions{})
		if len(ms) != 3 {
			t.Errorf("extended=%v: //a = %d, want 3", extended, len(ms))
		}
		// /a: anchored to document roots.
		ms = mustMatch(t, ix, `/a`, MatchOptions{})
		if len(ms) != 1 || ms[0].DocID != 0 {
			t.Errorf("extended=%v: /a = %+v", extended, ms)
		}
		// Depth-pinned.
		ms = mustMatch(t, ix, `/*/a`, MatchOptions{})
		if len(ms) != 1 || ms[0].DocID != 1 {
			t.Errorf("extended=%v: /*/a = %+v", extended, ms)
		}
		// Absent label.
		if n := len(mustMatch(t, ix, `//zz`, MatchOptions{})); n != 0 {
			t.Errorf("extended=%v: //zz = %d", extended, n)
		}
	}
}

func TestSingleNodeAgainstBruteForce(t *testing.T) {
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (a (a)) (b "v"))`),
	}
	ix := build(t, false, docs...)
	for _, qs := range []string{`//a`, `/a`, `//b`} {
		want := twig.CountBruteForce(twig.MustParse(qs), docs)
		got := len(mustMatch(t, ix, qs, MatchOptions{}))
		if got != want {
			t.Errorf("%s: got %d, brute force %d", qs, got, want)
		}
	}
}
