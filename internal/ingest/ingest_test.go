package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prix"
	"repro/internal/shard"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// writeCorpus renders a split-mode corpus of n <paper> records under one
// <collection> wrapper. Records listed in broken get deliberate damage:
// "syntax" a mismatched inner tag (decoder-breaking, recovered by resync),
// "deep" nesting beyond the parse depth limit (drained in place).
func writeCorpus(t *testing.T, path string, n int, broken map[int]string) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<collection>\n")
	for i := 0; i < n; i++ {
		switch broken[i] {
		case "syntax":
			fmt.Fprintf(&sb, "<paper><title>bad %d</title><a></b></paper>\n", i)
		case "deep":
			sb.WriteString("<paper>")
			for d := 0; d < 12; d++ {
				sb.WriteString("<d>")
			}
			sb.WriteString("x")
			for d := 0; d < 12; d++ {
				sb.WriteString("</d>")
			}
			sb.WriteString("</paper>\n")
		default:
			fmt.Fprintf(&sb,
				"<paper><title>title %d</title><authors><a>author %d</a><a>author %d</a></authors><year>%d</year></paper>\n",
				i, i%17, (i+5)%17, 1900+i%100)
		}
	}
	sb.WriteString("</collection>\n")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// parseAll collects every record of a corpus the way a non-streaming build
// would, for building reference indexes.
func parseAll(t *testing.T, path string) []*xmltree.Document {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cur := xmltree.NewCursor(f, xmltree.CursorOptions{Split: true, Parse: parseOpts()})
	var docs []*xmltree.Document
	for {
		doc, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return docs
		}
		if err != nil {
			var perr *xmltree.ParseError
			if errors.As(err, &perr) && !perr.Fatal {
				continue
			}
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
}

func parseOpts() xmltree.ParseOptions { return xmltree.ParseOptions{MaxDepth: 8} }

func baseOptions(input, dir string) Options {
	return Options{
		Input:     input,
		Dir:       dir,
		Split:     true,
		Parse:     parseOpts(),
		MemBudget: 32 << 10,
		Epoch:     7,
	}
}

// readIndexFiles snapshots the durable artifacts under an index root:
// page files, topology, replica clones — everything whose bytes a rerun
// must reproduce. Journals are transient and excluded.
func readIndexFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		base := filepath.Base(path)
		if strings.HasPrefix(rel, ".ingest") || strings.HasSuffix(base, ".jnl") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = raw
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameFiles(t *testing.T, want, got map[string][]byte, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: file sets differ: %d vs %d (%v vs %v)", label, len(want), len(got), keys(want), keys(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: missing file %s", label, name)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s: file %s differs (%d vs %d bytes)", label, name, len(w), len(g))
		}
	}
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRunPlain(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "corpus.xml")
	const n = 200
	writeCorpus(t, input, n, nil)

	out := filepath.Join(dir, "idx")
	rep, err := Run(baseOptions(input, out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Docs != n {
		t.Fatalf("indexed %d docs, want %d", rep.Docs, n)
	}
	if rep.Runs != 1 {
		t.Fatalf("the scan spooled %d runs, want 1", rep.Runs)
	}
	if rep.Skips != 0 {
		t.Fatalf("unexpected skips: %d", rep.Skips)
	}

	ix, err := prix.Open(out, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if errs := ix.Forest().Check(); len(errs) != 0 {
		t.Fatalf("forest check: %v", errs)
	}
	if ix.NumDocs() != n {
		t.Fatalf("opened index has %d docs, want %d", ix.NumDocs(), n)
	}

	// Query answers agree with an ordinary in-memory build of the same
	// records.
	ref, err := prix.Build(parseAll(t, input), prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, xpath := range []string{"//paper", "//authors/a", "//paper/title"} {
		q := twig.MustParse(xpath)
		got, _, err := ix.Match(q, prix.MatchOptions{})
		if err != nil {
			t.Fatalf("match %s: %v", xpath, err)
		}
		want, _, err := ref.Match(q, prix.MatchOptions{})
		if err != nil {
			t.Fatalf("ref match %s: %v", xpath, err)
		}
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("%s: %d matches, reference %d", xpath, len(got), len(want))
		}
	}

	// The build is deterministic: a second run over the same input produces
	// byte-identical page files.
	out2 := filepath.Join(dir, "idx2")
	if _, err := Run(baseOptions(input, out2)); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, readIndexFiles(t, out), readIndexFiles(t, out2), "rebuild")

	// The work directory is scratch: nothing of it outlives the build.
	if _, err := os.Stat(filepath.Join(out, ".ingest")); !os.IsNotExist(err) {
		t.Fatalf("the work directory survived the build: %v", err)
	}
}

func TestRunSharded(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "corpus.xml")
	const n = 120
	writeCorpus(t, input, n, nil)

	out := filepath.Join(dir, "idx")
	o := baseOptions(input, out)
	o.Shards = 3
	o.Replicas = 2
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Docs != n || rep.Shards != 3 {
		t.Fatalf("report %+v", rep)
	}

	topo, err := shard.LoadTopology(out)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Shards != 3 || topo.Replicas != 2 || topo.Docs != n || topo.Epoch != 7 {
		t.Fatalf("topology %+v", topo)
	}

	// Replicas are byte-identical clones of replica 0.
	for s := 0; s < 3; s++ {
		for _, name := range []string{prix.ForestFileName, prix.DocsFileName} {
			r0, err := os.ReadFile(filepath.Join(shard.ReplicaDir(out, s, 0), name))
			if err != nil {
				t.Fatal(err)
			}
			r1, err := os.ReadFile(filepath.Join(shard.ReplicaDir(out, s, 1), name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r0, r1) {
				t.Fatalf("shard %d: replica copies of %s differ", s, name)
			}
		}
	}

	// The coordinator's answers agree with a single-index build.
	coord, err := shard.Open(out, prix.Options{}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ref, err := prix.Build(parseAll(t, input), prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, xpath := range []string{"//paper", "//authors/a"} {
		q := twig.MustParse(xpath)
		got, _, err := coord.Match(q, prix.MatchOptions{})
		if err != nil {
			t.Fatalf("coordinator match %s: %v", xpath, err)
		}
		want, _, err := ref.Match(q, prix.MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("%s: coordinator %d matches, single index %d", xpath, len(got), len(want))
		}
	}
}

func TestMalformedRecordsSkippedAndReported(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "corpus.xml")
	const n = 60
	broken := map[int]string{7: "syntax", 23: "deep", 40: "syntax"}
	writeCorpus(t, input, n, broken)
	raw, err := os.ReadFile(input)
	if err != nil {
		t.Fatal(err)
	}

	o := baseOptions(input, filepath.Join(dir, "idx"))
	o.SkipBudget = 3
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Docs != n-3 {
		t.Fatalf("indexed %d docs, want %d", rep.Docs, n-3)
	}
	if rep.Skips != 3 || len(rep.SkipDetail) != 3 {
		t.Fatalf("skips %d, detail %d; want 3/3", rep.Skips, len(rep.SkipDetail))
	}
	for i, wantOrd := range []int{7, 23, 40} {
		sk := rep.SkipDetail[i]
		if sk.Ordinal != wantOrd {
			t.Fatalf("skip %d: ordinal %d, want %d", i, sk.Ordinal, wantOrd)
		}
		if sk.Error == "" {
			t.Fatalf("skip %d carries no cause", i)
		}
		// The reported offset must fall inside the malformed record's bytes.
		recStart := int64(nthRecordStart(raw, wantOrd))
		recEnd := int64(nthRecordStart(raw, wantOrd+1))
		if sk.Offset < recStart || sk.Offset > recEnd {
			t.Fatalf("skip %d: offset %d outside record %d's range [%d,%d]",
				i, sk.Offset, wantOrd, recStart, recEnd)
		}
	}

	// The survivors are queryable and the skipped records absent.
	ix, err := prix.Open(o.Dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	got, _, err := ix.Match(twig.MustParse("//paper/title"), prix.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n-3 {
		t.Fatalf("%d title matches, want %d", len(got), n-3)
	}

	// A tighter budget fails the build at the record that exceeds it.
	o2 := baseOptions(input, filepath.Join(dir, "idx2"))
	o2.SkipBudget = 1
	if _, err := Run(o2); err == nil || !strings.Contains(err.Error(), "skip budget exhausted") {
		t.Fatalf("skip budget 1 over 3 malformed records: got %v", err)
	}
	// Zero tolerance is the default.
	o3 := baseOptions(input, filepath.Join(dir, "idx3"))
	if _, err := Run(o3); err == nil || !strings.Contains(err.Error(), "skip budget exhausted") {
		t.Fatalf("default skip budget: got %v", err)
	}
}

// nthRecordStart locates the byte offset where the n-th <paper> record
// starts (records are newline-separated in the generated corpus).
func nthRecordStart(raw []byte, n int) int {
	off := bytes.IndexByte(raw, '\n') + 1 // skip the wrapper line
	for i := 0; i < n; i++ {
		next := bytes.IndexByte(raw[off:], '\n')
		if next < 0 {
			return len(raw)
		}
		off += next + 1
	}
	return off
}
