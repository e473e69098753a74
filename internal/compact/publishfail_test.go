package compact

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/xmltree"
)

// failFS fails write-class operations whose path matches a substring, n
// times (reads always pass through). With thenAll set, the moment the
// matched failure fires every further write-class operation fails too — a
// disk dying at the commit point.
type failFS struct {
	pager.FS
	mu      sync.Mutex
	match   string
	n       int
	thenAll bool
	failAll bool
}

var errInjected = errors.New("injected write failure")

func (f *failFS) deny(path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAll {
		return true
	}
	if f.n > 0 && strings.Contains(path, f.match) {
		f.n--
		if f.thenAll {
			f.failAll = true
		}
		return true
	}
	return false
}

func (f *failFS) Create(path string) (pager.FSFile, error) {
	if f.deny(path) {
		return nil, errInjected
	}
	return f.FS.Create(path)
}

func (f *failFS) Rename(oldPath, newPath string) error {
	if f.deny(newPath) {
		return errInjected
	}
	return f.FS.Rename(oldPath, newPath)
}

func (f *failFS) Remove(path string) error {
	if f.deny(path) {
		return errInjected
	}
	return f.FS.Remove(path)
}

func (f *failFS) RemoveAll(path string) error {
	if f.deny(path) {
		return errInjected
	}
	return f.FS.RemoveAll(path)
}

func (f *failFS) MkdirAll(path string) error {
	if f.deny(path) {
		return errInjected
	}
	return f.FS.MkdirAll(path)
}

// markerDoc is a recognizable post-failure insert.
func markerDoc(i int) *xmltree.Document {
	return xmltree.MustFromSExpr(i, `(marker (late))`)
}

// TestOnlinePublishFailureKeepsLaterInserts is the regression test for the
// aborted-publish data-loss hazard: an online compaction whose CURRENT
// write fails aborts cleanly, inserts acknowledged afterwards land in the
// (still serving) old epoch, and a crash + restart must recover a
// compacted index that contains those inserts — never the stale pre-built
// epoch the interrupted manifest pointed at.
func TestOnlinePublishFailureKeepsLaterInserts(t *testing.T) {
	dir := t.TempDir()
	docs := corpus(30)
	buildDynamicDir(t, dir, docs)

	root, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	root.fs = &failFS{FS: pager.OSFS{}, match: CurrentFile, n: 1}

	_, err = root.Compact(context.Background(), CompactOptions{MemBudget: 32 << 10})
	var ab *Aborted
	if !errors.As(err, &ab) || ab.Phase != phasePublish {
		t.Fatalf("failed publish: err = %v, want *Aborted in publish phase", err)
	}
	if root.Epoch() != 0 {
		t.Fatalf("aborted publish moved the root to epoch %d", root.Epoch())
	}
	// The rollback must have demoted the on-disk checkpoint: a manifest
	// still claiming phasePublish is exactly the state recovery would
	// commit stale.
	if m, err := loadManifest(pager.OSFS{}, filepath.Join(dir, WorkDirName)); err == nil && m.Phase == phasePublish {
		t.Fatal("publish failure left the manifest at phasePublish")
	}
	// The partially published epoch directory is gone.
	if _, err := os.Stat(filepath.Join(dir, EpochDirName(1))); !os.IsNotExist(err) {
		t.Fatal("publish failure left the uncommitted epoch directory behind")
	}

	// Inserts acknowledged after the abort land in the old epoch.
	const extra = 5
	for i := 0; i < extra; i++ {
		if err := root.Insert(markerDoc(len(docs) + i)); err != nil {
			t.Fatalf("insert after aborted publish: %v", err)
		}
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash + restart": reopen on a healthy filesystem. Recovery resumes
	// the demoted compaction — re-draining past the watermark — and every
	// acknowledged insert survives.
	root2, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
	if err != nil {
		t.Fatalf("restart after aborted publish: %v", err)
	}
	defer root2.Close()
	if got := root2.NumDocs(); got != len(docs)+extra {
		t.Fatalf("restart lost inserts: %d docs, want %d", got, len(docs)+extra)
	}
	if got := querySig(t, root2, `//marker/late`); strings.Count(got, ";") != extra {
		t.Fatalf("post-abort inserts not all queryable after restart: %q", got)
	}
	if root2.Epoch() != 1 {
		t.Fatalf("recovery finished at epoch %d, want 1", root2.Epoch())
	}
}

// TestRecoveryRefusesStalePublishManifest drives the worst case: the
// publish fails AND the rollback itself cannot write (the disk dies at the
// commit point), so the manifest is stranded at phasePublish with a stale
// epoch directory on disk while inserts keep landing in the old epoch.
// Recovery must notice the source grew past the built watermark, discard
// the stale build, and re-drain — the defense-in-depth half of the fix.
func TestRecoveryRefusesStalePublishManifest(t *testing.T) {
	dir := t.TempDir()
	docs := corpus(24)
	buildDynamicDir(t, dir, docs)

	root, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	root.fs = &failFS{FS: pager.OSFS{}, match: CurrentFile, n: 1, thenAll: true}

	_, err = root.Compact(context.Background(), CompactOptions{MemBudget: 32 << 10})
	var ab *Aborted
	if !errors.As(err, &ab) || ab.Phase != phasePublish {
		t.Fatalf("failed publish: err = %v, want *Aborted in publish phase", err)
	}
	// The stranded state this test is about: manifest still at
	// phasePublish, stale epoch directory present.
	m, merr := loadManifest(pager.OSFS{}, filepath.Join(dir, WorkDirName))
	if merr != nil || m.Phase != phasePublish {
		t.Fatalf("test rig: expected a stranded phasePublish manifest, got %+v err %v", m, merr)
	}
	if _, err := os.Stat(filepath.Join(dir, EpochDirName(1))); err != nil {
		t.Fatalf("test rig: expected the stale epoch directory to survive: %v", err)
	}

	// Inserts land in the old epoch (page files bypass the injected FS).
	const extra = 4
	for i := 0; i < extra; i++ {
		if err := root.Insert(markerDoc(len(docs) + i)); err != nil {
			t.Fatalf("insert after stranded publish: %v", err)
		}
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on a healthy disk: recovery must NOT commit the stale epoch.
	root2, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
	if err != nil {
		t.Fatalf("restart after stranded publish: %v", err)
	}
	defer root2.Close()
	if got := root2.NumDocs(); got != len(docs)+extra {
		t.Fatalf("recovery committed the stale epoch: %d docs, want %d", got, len(docs)+extra)
	}
	if got := querySig(t, root2, `//marker/late`); strings.Count(got, ";") != extra {
		t.Fatalf("post-failure inserts not all queryable after restart: %q", got)
	}
	if root2.Epoch() != 1 {
		t.Fatalf("recovery finished at epoch %d, want 1", root2.Epoch())
	}
}

// TestOnlinePublishFailureInProcessRetry: after a failed publish and its
// rollback, a second in-process Compact on the same Root completes, and
// documents inserted between the attempts are in the committed epoch.
func TestOnlinePublishFailureInProcessRetry(t *testing.T) {
	dir := t.TempDir()
	docs := corpus(20)
	buildDynamicDir(t, dir, docs)

	root, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	root.fs = &failFS{FS: pager.OSFS{}, match: CurrentFile, n: 1}

	if _, err := root.Compact(context.Background(), CompactOptions{MemBudget: 32 << 10}); err == nil {
		t.Fatal("first compaction unexpectedly survived the injected CURRENT failure")
	}
	const extra = 3
	for i := 0; i < extra; i++ {
		if err := root.Insert(markerDoc(len(docs) + i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := root.Compact(context.Background(), CompactOptions{MemBudget: 32 << 10})
	if err != nil {
		t.Fatalf("retry after failed publish: %v", err)
	}
	if rep.Epoch != 1 || root.Epoch() != 1 {
		t.Fatalf("retry committed epoch %d (root %d), want 1", rep.Epoch, root.Epoch())
	}
	if got := root.NumDocs(); got != len(docs)+extra {
		t.Fatalf("retry lost documents: %d, want %d", got, len(docs)+extra)
	}
	if got := querySig(t, root, `//marker/late`); strings.Count(got, ";") != extra {
		t.Fatalf("between-attempt inserts missing from the compacted epoch: %q", got)
	}
}
