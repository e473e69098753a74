package compact

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/prix"
	"repro/internal/xmltree"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCompactorLoop drives the background loop end to end: the first
// interval compacts the never-compacted root, idle intervals are skipped
// and counted (an idle index is not rewritten every tick), and a new
// insert makes the next interval compact again.
func TestCompactorLoop(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(20))
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	c := New(root, Config{Interval: 2 * time.Millisecond, MemBudget: 32 << 10})
	c.Start()
	defer c.Stop()

	waitFor(t, "first background compaction", func() bool { return c.Stats().Runs == 1 })
	if root.Epoch() != 1 {
		t.Fatalf("epoch after first background run = %d", root.Epoch())
	}
	rep, err := c.LastReport()
	if err != nil || rep == nil || rep.Epoch != 1 {
		t.Fatalf("LastReport = %+v, %v", rep, err)
	}

	// Nothing inserted since: intervals skip instead of rewriting.
	waitFor(t, "idle skip", func() bool { return c.Stats().Skipped >= 2 })
	if got := c.Stats(); got.Runs != 1 || got.Epoch != 1 {
		t.Fatalf("idle loop kept compacting: %+v", got)
	}

	// One insert re-arms the loop.
	if err := root.Insert(xmltree.MustFromSExpr(0, `(a (b (c)))`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-insert compaction", func() bool { return c.Stats().Runs == 2 })
	waitFor(t, "epoch 2", func() bool { return root.Epoch() == 2 })

	c.Stop()
	st := c.Stats()
	if st.Failures != 0 || st.Running || st.DocsCompacted < 21 || st.LastElapsed <= 0 {
		t.Fatalf("final stats: %+v", st)
	}
}

// TestCompactorCompactsAfterDeletes: deletes (like updates and patches)
// keep the document count, yet they are what a compaction reclaims, so the
// loop must compact after deletes alone instead of skipping them as idle.
func TestCompactorCompactsAfterDeletes(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(20))
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	c := New(root, Config{Interval: 2 * time.Millisecond, MemBudget: 32 << 10})
	c.Start()
	defer c.Stop()
	waitFor(t, "first background compaction", func() bool { return c.Stats().Runs == 1 })
	waitFor(t, "idle skip", func() bool { return c.Stats().Skipped >= 2 })

	for id := uint32(0); id < 5; id++ {
		if _, err := root.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "post-delete compaction", func() bool { return c.Stats().Runs == 2 })
	waitFor(t, "epoch 2", func() bool { return root.Epoch() == 2 })
	// The new epoch was built from a collapsed version map: the deletes are
	// folded in, none is pending reclamation.
	if st := root.VersionStats(); st.MutOps != 0 || st.Tombstones != 5 {
		t.Fatalf("after the post-delete compaction: %+v, want MutOps 0 and 5 tombstones", st)
	}
}

// TestCompactorPrimedAtOpen: a root already serving a committed epoch is up
// to date — the loop skips until documents arrive — but RunOnce (the POST
// /compact path) forces a rewrite regardless.
func TestCompactorPrimedAtOpen(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(15))
	if _, err := Run(Options{Dir: dir, MemBudget: 32 << 10}); err != nil {
		t.Fatal(err)
	}
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	if root.Epoch() != 1 {
		t.Fatalf("reopened epoch = %d", root.Epoch())
	}

	c := New(root, Config{Interval: 2 * time.Millisecond, MemBudget: 32 << 10})
	c.Start()
	waitFor(t, "primed skip", func() bool { return c.Stats().Skipped >= 2 })
	if got := c.Stats(); got.Runs != 0 {
		t.Fatalf("primed compactor rewrote an idle root: %+v", got)
	}

	rep, err := c.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 || root.Epoch() != 2 {
		t.Fatalf("forced RunOnce: report %+v, root epoch %d", rep, root.Epoch())
	}

	c.Stop()
	c.Stop() // idempotent
	// Stop ends the lifetime: later forced runs are refused, so the caller
	// can close the Root without racing a compaction.
	if _, err := c.RunOnce(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("RunOnce after Stop: err = %v, want ErrStopped", err)
	}
}

// TestRunOnceDetachedFromCaller: a forced run survives its caller's context
// — POST /compact must not throw away a long compaction because the client
// disconnected — while Stop still cancels it.
func TestRunOnceDetachedFromCaller(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(20))
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	c := New(root, Config{MemBudget: 32 << 10})
	defer c.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	rep, err := c.RunOnce(ctx)
	if err != nil {
		t.Fatalf("RunOnce aborted with the caller's context: %v", err)
	}
	if rep.Epoch != 1 || root.Epoch() != 1 {
		t.Fatalf("detached run: report %+v, root epoch %d", rep, root.Epoch())
	}
}

// TestRootProxies covers the Root's serving pass-throughs over a live
// epoch: counters, flush, and the generation that advances on both inserts
// and swaps.
func TestRootProxies(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(20))
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	if st := root.Stats(); st.Extended || len(st.Quarantined) != 0 || st.Docs != 20 {
		t.Fatalf("fresh RP-built root: %+v", st)
	}
	querySig(t, root, testQueries[0])
	if root.PagesRead() == 0 {
		t.Fatal("PagesRead did not account the query's physical reads")
	}

	gen := root.Generation()
	if err := root.Insert(xmltree.MustFromSExpr(0, `(a (b))`)); err != nil {
		t.Fatal(err)
	}
	if root.Generation() <= gen {
		t.Fatal("generation did not advance on insert")
	}
	if err := root.Flush(); err != nil {
		t.Fatal(err)
	}

	gen = root.Generation()
	if _, err := root.Compact(context.Background(), CompactOptions{MemBudget: 32 << 10}); err != nil {
		t.Fatal(err)
	}
	if root.Generation() <= gen {
		t.Fatal("generation did not advance on swap")
	}
}
