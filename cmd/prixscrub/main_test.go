package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree/xmltreetest"
)

func scrubDoc(t *testing.T, i int) *core.Document {
	t.Helper()
	d, err := core.ParseXMLString(i, fmt.Sprintf(`<a><b><c>v%d</c></b><d>%d</d></a>`, i%3, i))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// answers renders every query's matches on a live root.
func answers(t *testing.T, r *core.CompactRoot) string {
	t.Helper()
	var b strings.Builder
	for _, qs := range []string{`//a/b/c`, `//a[./b/c="v1"]/d`, `//a/d`} {
		q, err := core.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		ms, _, err := r.Match(q, core.MatchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		fmt.Fprintf(&b, "%s:", qs)
		for _, m := range ms {
			fmt.Fprintf(&b, " %d/%d", m.DocID, m.Root)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// -compact on an epoch root compacts it again: an epoch-1 root holding 12
// inserts made since its compaction becomes epoch 2, with all 24 documents
// answering as before.
func TestCompactEpochRootWithInserts(t *testing.T) {
	dir := t.TempDir()
	var seed []*core.Document
	for i := 0; i < 12; i++ {
		seed = append(seed, scrubDoc(t, i))
	}
	di, err := core.NewDynamicIndex(seed, core.Options{Dir: dir}, core.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	if reps, err := compactDir(dir, 0); err != nil || reps[0].Epoch != 1 {
		t.Fatalf("first compaction: %+v, %v", reps, err)
	}

	r, err := core.OpenCompactRoot(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 24; i++ {
		if err := r.Insert(scrubDoc(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := answers(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	reps, err := compactDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep := reps[0]; rep.Skipped || rep.Epoch != 2 || rep.Docs != 24 {
		t.Fatalf("compaction of the epoch-1 root: %+v, want epoch 2 with 24 docs", rep)
	}
	r, err = core.OpenCompactRoot(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Epoch() != 2 || r.NumDocs() != 24 {
		t.Fatalf("reopened root: epoch %d, %d docs; want epoch 2, 24 docs", r.Epoch(), r.NumDocs())
	}
	if got := answers(t, r); got != want {
		t.Fatalf("answers changed across the compaction:\n%s\nwant\n%s", got, want)
	}
}

// prixscrub -repair on a dynamic directory whose forest page fails its
// checksum rebuilds the forest with dynamic labels and records the
// labeler's replay parameters: the directory then reopens insertable, and
// the inserts stay oracle-exact.
func TestRepairDynamicDirThenInserts(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	var docs []*core.Document
	for d := 0; d < 120; d++ {
		docs = append(docs, xmltreetest.RandomDocument(rng, d, xmltreetest.RandomConfig{
			Nodes: 3 + rng.Intn(16), Alphabet: []string{"a", "b", "c", "d", "e"},
			MaxFanout: 4, ValueProb: 0.2, Values: []string{"v1", "v2"},
		}))
	}
	di, err := core.NewDynamicIndex(docs[:60], core.Options{Dir: dir}, core.DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := pager.OpenOSFile(filepath.Join(dir, prix.ForestFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := pagertest.FlipBit(f, pager.PageID(f.NumPages()-1), (pager.PageHeaderSize+11)*8+2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ix, err := core.OpenIndex(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scrubPass(ix, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ForestRebuilt || !rep.Clean {
		t.Fatalf("the pass did not rebuild the forest clean: %+v", rep)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := core.OpenCompactRoot(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, d := range docs[60:] {
		if err := r.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{`//a/b`, `//b[./c]`, `//a[./b]/c`, `//b/c`, `//a/d`, `//e`, `//a[./b][./d]`, `//c[./d]`} {
		q := twig.MustParse(src)
		ms, _, err := r.Match(q, core.MatchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if want := twig.CountBruteForce(q, docs); len(ms) != want {
			t.Errorf("%s: %d matches, oracle %d", src, len(ms), want)
		}
	}
}
