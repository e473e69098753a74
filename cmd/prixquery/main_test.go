package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// runQuery runs prixquery's main body against dir and returns its exit code
// and standard output.
func runQuery(t *testing.T, args ...string) (int, string) {
	t.Helper()
	tmp := t.TempDir()
	stdout, err := os.Create(filepath.Join(tmp, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(tmp, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	code := run(args, stdout, stderr)
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// The summary line counts every match, a twig with // edges on two branches
// (split and joined) as much as any other, and carries no completeness label.
func TestSummaryLineReportsComplete(t *testing.T) {
	dir := t.TempDir()
	var docs []*core.Document
	for i := 0; i < 5; i++ {
		d, err := core.ParseXMLString(i, `<a><b><c/></b><d><e/></d></a>`)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	ix, err := core.BuildIndex(docs, core.Options{Dir: dir, Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`//a[.//b/c]//d/e`, `//a[./b/c]/d`, `//a//d/e`} {
		code, out := runQuery(t, "-index", dir, "-count", q)
		line, _, _ := strings.Cut(out, "\n")
		if code != exitOK || !strings.HasPrefix(line, "5 matches") || strings.Contains(line, "complete") {
			t.Errorf("%s: exit %d, summary %q; want 5 matches and no completeness label", q, code, line)
		}
	}
}

// -reconstruct of a deleted document exits 1 instead of printing the
// tombstoned image; a live one still prints.
func TestReconstructDeletedExitsError(t *testing.T) {
	dir := t.TempDir()
	var docs []*core.Document
	for i, src := range []string{`<a><b/></a>`, `<a><c/></a>`} {
		d, err := core.ParseXMLString(i, src)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	di, err := core.NewDynamicIndex(docs, core.Options{Dir: dir, Extended: true}, core.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	if code, out := runQuery(t, "-index", dir, "-reconstruct", "0"); code != 1 || out != "" {
		t.Errorf("-reconstruct 0 of a deleted document: exit %d, printed %q; want exit 1 and nothing", code, out)
	}
	if code, out := runQuery(t, "-index", dir, "-reconstruct", "1"); code != 0 || !strings.Contains(out, "<c") {
		t.Errorf("-reconstruct 1: exit %d, printed %q", code, out)
	}
}
