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

// The summary line says whether the answer is guaranteed complete: false for
// a twig with // edges on two branches (answered by the fast path all the
// same), true otherwise.
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
	for q, want := range map[string]string{
		`//a[.//b/c]//d/e`: "complete: false",
		`//a[./b/c]/d`:     "complete: true",
		`//a//d/e`:         "complete: true",
	} {
		code, out := runQuery(t, "-index", dir, "-count", q)
		line, _, _ := strings.Cut(out, "\n")
		if code != exitOK || !strings.HasPrefix(line, "5 matches") || !strings.Contains(line, want) {
			t.Errorf("%s: exit %d, summary %q; want 5 matches, %s", q, code, line, want)
		}
	}
}
