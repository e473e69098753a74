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
	"repro/internal/xmltree/xmltreetest"
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
	return xmltreetest.MustFromSExpr(i, `(marker (late))`)
}

// restartAfterFailedPublish is the second half of both publish-failure
// scenarios: a restart on a healthy disk serves epoch 0 with every insert
// acknowledged after the failure and no trace of the uncommitted epoch, and
// the next compaction reaches epoch 1 with all of them.
func restartAfterFailedPublish(t *testing.T, dir string, docs, extra int) {
	t.Helper()
	root, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
	if err != nil {
		t.Fatalf("restart after the failed publish: %v", err)
	}
	defer root.Close()
	if root.Epoch() != 0 {
		t.Fatalf("restart serves epoch %d, want 0: CURRENT never committed", root.Epoch())
	}
	onlyServing(t, dir, 0)
	check := func(when string) {
		t.Helper()
		if got := root.NumDocs(); got != docs+extra {
			t.Fatalf("%s: %d docs, want %d", when, got, docs+extra)
		}
		if got := querySig(t, root, `//marker/late`); strings.Count(got, ";") != extra {
			t.Fatalf("%s: post-failure inserts not all queryable: %q", when, got)
		}
	}
	check("restart")
	rep, err := root.Compact(context.Background(), CompactOptions{MemBudget: 32 << 10})
	if err != nil {
		t.Fatalf("compaction after restart: %v", err)
	}
	if rep.Epoch != 1 || root.Epoch() != 1 {
		t.Fatalf("compaction after restart committed epoch %d (root %d), want 1", rep.Epoch, root.Epoch())
	}
	check("compaction after restart")
}

// TestOnlinePublishFailureKeepsLaterInserts: an online compaction whose
// CURRENT write fails aborts cleanly, inserts acknowledged afterwards land
// in the still-serving old epoch, and a restart keeps every one of them —
// the epoch directory the failed publish renamed into place is debris,
// never committed.
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
	restartAfterFailedPublish(t, dir, len(docs), extra)
}

// TestRecoveryDropsStalePublishedEpoch drives the worst case: the publish
// fails and the disk dies with it, so nothing more can be written — the
// renamed epoch directory stays on disk, built without the inserts that
// keep landing in the old epoch. CURRENT never named it, so the restart
// deletes it instead of serving it.
func TestRecoveryDropsStalePublishedEpoch(t *testing.T) {
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
	// The state this test is about: a stale epoch directory on disk.
	if _, err := os.Stat(filepath.Join(dir, EpochDirName(1))); err != nil {
		t.Fatalf("test rig: expected the stale epoch directory to survive: %v", err)
	}

	// Inserts land in the old epoch (page files bypass the injected FS).
	const extra = 4
	for i := 0; i < extra; i++ {
		if err := root.Insert(markerDoc(len(docs) + i)); err != nil {
			t.Fatalf("insert after the failed publish: %v", err)
		}
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	restartAfterFailedPublish(t, dir, len(docs), extra)
}

// TestOnlinePublishFailureInProcessRetry: after a failed publish, a second
// in-process Compact on the same Root deletes the uncommitted epoch and
// completes, and documents inserted between the attempts are in the
// committed epoch.
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
