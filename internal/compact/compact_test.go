package compact

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/shard"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// corpus builds n documents with enough shared structure that twig queries
// match across most of them, plus a couple of outliers.
func corpus(n int) []*xmltree.Document {
	var docs []*xmltree.Document
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d (e)))`))
		case 1:
			docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c "v1")) (x))`))
		default:
			docs = append(docs, xmltreetest.MustFromSExpr(i, `(r (a (d (e))) (b))`))
		}
	}
	return docs
}

var testQueries = []string{`//a/b`, `//a[./b/c]/d`, `//a/d/e`, `//r`, `//b/c`}

// buildDynamicDir grows a dynamic index on disk the way a serving
// deployment does: a small seed, then per-document inserts.
func buildDynamicDir(t *testing.T, dir string, docs []*xmltree.Document) {
	t.Helper()
	seed := docs
	if len(seed) > 8 {
		seed = seed[:8]
	}
	di, err := prix.NewDynamicIndex(seed, prix.Options{Dir: dir, BufferPoolPages: 128}, prix.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[len(seed):] {
		if err := di.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
}

// querySig renders one query's full result set into a comparable string.
func querySig(t *testing.T, src interface {
	Match(*twig.Query, prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error)
}, qs string) string {
	t.Helper()
	ms, stats, err := src.Match(twig.MustParse(qs), prix.MatchOptions{})
	if err != nil {
		t.Fatalf("%s: %v", qs, err)
	}
	if stats.Degraded {
		t.Fatalf("%s: degraded answer", qs)
	}
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%d:%d:%v:%v;", m.DocID, m.Root, m.Positions, m.Images)
	}
	return b.String()
}

// snapshotDir reads every durable file under root, keyed by relative path.
// The work directory and transient journals are excluded — the restart
// contract pins everything else.
func snapshotDir(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if strings.HasSuffix(rel, ".jnl") {
			return nil
		}
		for _, el := range strings.Split(rel, string(filepath.Separator)) {
			if el == WorkDirName {
				return nil
			}
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

func sameSnapshots(t *testing.T, want, got map[string][]byte, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: file sets differ: %d vs %d (%v vs %v)", label, len(want), len(got), names(want), names(got))
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

func names(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// copyTree clones a directory (the pristine source each sweep iteration
// starts from).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOfflineCompactRoundTrip: Run converts a plain dynamic directory into
// an epoch root whose compacted index answers identically, stays
// insertable, and can be compacted again (epoch 1 → epoch 2).
func TestOfflineCompactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	docs := corpus(40)
	buildDynamicDir(t, dir, docs)

	before, err := prix.OpenDynamic(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, qs := range testQueries {
		want[qs] = querySig(t, before.Index(), qs)
	}
	if err := before.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(Options{Dir: dir, MemBudget: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || rep.Docs != 40 || rep.Runs < 1 || rep.RunBytes == 0 {
		t.Fatalf("report: %+v (want epoch 1, 40 docs, a sealed run)", rep)
	}
	// The plain page files are gone; everything lives under the epoch dir.
	if _, err := os.Stat(filepath.Join(dir, prix.ForestFileName)); !os.IsNotExist(err) {
		t.Fatalf("plain %s survived the conversion: %v", prix.ForestFileName, err)
	}
	if _, err := os.Stat(filepath.Join(dir, WorkDirName)); !os.IsNotExist(err) {
		t.Fatal("work directory survived cleanup")
	}
	resolved, epoch, err := resolveDir(pager.OSFS{}, dir)
	if err != nil || epoch != 1 || resolved != filepath.Join(dir, EpochDirName(1)) {
		t.Fatalf("resolve: %s epoch %d err %v", resolved, epoch, err)
	}

	after, err := prix.OpenDynamic(resolved, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range testQueries {
		if got := querySig(t, after.Index(), qs); got != want[qs] {
			t.Fatalf("%s answers differently after compaction", qs)
		}
	}
	// Still insertable, then compactable again.
	for _, doc := range corpus(6) {
		if err := after.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := after.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := after.Close(); err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(Options{Dir: dir, MemBudget: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Epoch != 2 || rep2.Docs != 46 {
		t.Fatalf("second compaction: %+v", rep2)
	}
	if _, err := os.Stat(filepath.Join(dir, EpochDirName(1))); !os.IsNotExist(err) {
		t.Fatal("superseded epoch directory survived cleanup")
	}
}

// TestOfflineCompactStatic: a Build output compacts like any index, keeps
// answering identically, and its compacted epoch takes writes.
func TestOfflineCompactStatic(t *testing.T) {
	dir := t.TempDir()
	docs := corpus(20)
	b, err := prix.NewBuilder(prix.Options{Dir: dir, BufferPoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		if err := b.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, qs := range testQueries {
		want[qs] = querySig(t, ix, qs)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{Dir: dir, MemBudget: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || rep.Docs != 20 {
		t.Fatalf("report: %+v (want epoch 1, 20 docs)", rep)
	}
	resolved, err := ResolveDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	after, err := prix.OpenDynamic(resolved, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	for _, qs := range testQueries {
		if got := querySig(t, after.Index(), qs); got != want[qs] {
			t.Fatalf("%s answers differently after static compaction", qs)
		}
	}
	more := corpus(24)[20:]
	for _, doc := range more {
		if err := after.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	all := append(docs, more...)
	for _, qs := range testQueries {
		q := twig.MustParse(qs)
		ms, _, err := after.Match(q, prix.MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := twig.CountBruteForce(q, all); len(ms) != want {
			t.Fatalf("%s after inserts into the compacted epoch: %d matches, oracle %d", qs, len(ms), want)
		}
	}
}

// TestShardedOfflineCompact: every replica of a sharded layout compacts
// into its own epoch root, and the coordinator opens the compacted layout
// through ResolveDir answering exactly as before.
func TestShardedOfflineCompact(t *testing.T) {
	root := t.TempDir()
	docs := corpus(36)
	if _, err := shard.Build(root, docs, shard.BuildConfig{Shards: 3, Replicas: 2, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	co, err := shard.Open(root, prix.Options{}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, qs := range testQueries {
		want[qs] = coordSig(t, co, qs)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	reps, err := RunSharded(root, Options{MemBudget: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 6 {
		t.Fatalf("compacted %d replicas, want 6", len(reps))
	}
	for i, rep := range reps {
		if rep.Epoch != 1 || rep.Skipped {
			t.Fatalf("replica %d: %+v", i, rep)
		}
	}
	co2, err := shard.Open(root, prix.Options{}, shard.Config{ResolveDir: ResolveDir})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	for _, qs := range testQueries {
		if got := coordSig(t, co2, qs); got != want[qs] {
			t.Fatalf("%s answers differently over the compacted sharded layout", qs)
		}
	}
}

func coordSig(t *testing.T, co *shard.Coordinator, qs string) string {
	t.Helper()
	ms, stats, err := co.Match(twig.MustParse(qs), prix.MatchOptions{})
	if err != nil {
		t.Fatalf("%s: %v", qs, err)
	}
	if stats.Degraded {
		t.Fatalf("%s: degraded", qs)
	}
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%d:%d;", m.DocID, m.Root)
	}
	return b.String()
}
