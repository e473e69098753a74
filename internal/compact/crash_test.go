package compact

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/prix"
	"repro/internal/shard"
)

// Every rename a compaction makes — the epoch publish, CURRENT and the
// manifests through AtomicFile — is followed by a sync of the target's
// directory.
func TestCompactRenamesSyncDir(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(18))
	fs := &pagertest.RecordFS{FS: pager.NewFaultFS(pager.OSFS{}, pager.NewPowerClock(0))}
	if _, err := Run(Options{Dir: dir, MemBudget: 32 << 10, FS: fs}); err != nil {
		t.Fatal(err)
	}
	if n := fs.CheckRenamesSynced(t); n < 2 {
		t.Errorf("the compaction renamed %d times; want the epoch publish and CURRENT at least", n)
	}
}

// TestCompactCrashSweepPlain is the power-cut sweep of the compaction
// resume contract: learn the total write count W of an uninterrupted
// compaction, then for every k in 1..W rerun it with the power cut (torn
// final write included) at the k-th write. After every cut the root must
// still resolve and serve the exact pre-compaction answers — the old
// source untouched, or the fully committed new epoch — and ResumeOrRun on
// a healthy stack must converge on a byte-identical final layout.
func TestCompactCrashSweepPlain(t *testing.T) {
	base := t.TempDir()
	docs := corpus(18)
	pristine := filepath.Join(base, "pristine")
	if err := os.MkdirAll(pristine, 0o755); err != nil {
		t.Fatal(err)
	}
	buildDynamicDir(t, pristine, docs)
	src, err := prix.OpenDynamic(pristine, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantSig := map[string]string{}
	for _, qs := range testQueries {
		wantSig[qs] = querySig(t, src.Index(), qs)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	opts := func(dir string) Options { return Options{Dir: dir, MemBudget: 32 << 10} }

	// Uninterrupted baseline.
	baseDir := filepath.Join(base, "base")
	copyTree(t, pristine, baseDir)
	if _, err := Run(opts(baseDir)); err != nil {
		t.Fatal(err)
	}
	want := snapshotDir(t, baseDir)

	out := filepath.Join(base, "cut")
	run := func(t *testing.T, k int64, clock *pager.PowerClock) error {
		if err := os.RemoveAll(out); err != nil {
			t.Fatal(err)
		}
		copyTree(t, pristine, out)
		o := opts(out)
		o.FS = pager.NewFaultFS(pager.OSFS{}, clock)
		o.OpenFile = pagertest.FaultOpen(clock)
		_, err := Run(o)
		if k == 0 && err == nil {
			// The faulted but never-cut run must still produce the baseline bytes.
			sameSnapshots(t, want, snapshotDir(t, out), "counting run")
		}
		return err
	}
	pagertest.Sweep(t, 10, func(int64) int { return pager.PageSize / 3 }, run, func(t *testing.T, k int64) {
		// A server restarted right after the cut must serve immediately:
		// CURRENT commits via an atomic rename, so the root resolves to
		// either the untouched source or the fully built new epoch — never
		// a torn in-between — and answers are unchanged.
		resolved, epoch, err := resolveDir(pager.OSFS{}, out)
		if err != nil {
			t.Fatalf("root does not resolve: %v", err)
		}
		ix, err := prix.OpenDynamic(resolved, prix.Options{})
		if err != nil {
			t.Fatalf("serving layout (epoch %d) does not open: %v", epoch, err)
		}
		if ix.NumDocs() != len(docs) {
			t.Fatalf("serving layout has %d docs, want %d", ix.NumDocs(), len(docs))
		}
		for _, qs := range testQueries {
			if got := querySig(t, ix.Index(), qs); got != wantSig[qs] {
				t.Fatalf("%s answers differently on the surviving layout", qs)
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}

		// Recovery on a healthy stack converges byte-identically.
		rep, err := ResumeOrRun(opts(out))
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if rep.Epoch != 1 {
			t.Fatalf("recovery reports epoch %d", rep.Epoch)
		}
		sameSnapshots(t, want, snapshotDir(t, out), fmt.Sprintf("cut at write %d", k))
	})
}

// TestCompactCrashSweepSharded runs the same per-ordinal sweep over a
// sharded, replicated layout: a cut strands some replicas compacted, one
// mid-flight, the rest untouched; the coordinator must still open and
// answer identically, and ResumeSharded must finish every replica into the
// baseline bytes.
func TestCompactCrashSweepSharded(t *testing.T) {
	base := t.TempDir()
	docs := corpus(16)
	pristine := filepath.Join(base, "pristine")
	if _, err := shard.Build(pristine, docs, shard.BuildConfig{Shards: 2, Replicas: 2, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	co, err := shard.Open(pristine, prix.Options{}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantSig := map[string]string{}
	for _, qs := range testQueries {
		wantSig[qs] = coordSig(t, co, qs)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	opts := func() Options { return Options{MemBudget: 32 << 10} }

	baseDir := filepath.Join(base, "base")
	copyTree(t, pristine, baseDir)
	if _, err := RunSharded(baseDir, opts()); err != nil {
		t.Fatal(err)
	}
	want := snapshotDir(t, baseDir)

	out := filepath.Join(base, "cut")
	run := func(t *testing.T, k int64, clock *pager.PowerClock) error {
		if err := os.RemoveAll(out); err != nil {
			t.Fatal(err)
		}
		copyTree(t, pristine, out)
		o := opts()
		o.FS = pager.NewFaultFS(pager.OSFS{}, clock)
		o.OpenFile = pagertest.FaultOpen(clock)
		_, err := RunSharded(out, o)
		if k == 0 && err == nil {
			sameSnapshots(t, want, snapshotDir(t, out), "counting run")
		}
		return err
	}
	pagertest.Sweep(t, 20, func(int64) int { return pager.PageSize / 3 }, run, func(t *testing.T, k int64) {
		// The whole tier keeps serving across the cut: every replica
		// resolves (committed epoch or untouched plain layout) and the
		// coordinator's answers are unchanged.
		co, err := shard.Open(out, prix.Options{}, shard.Config{ResolveDir: ResolveDir})
		if err != nil {
			t.Fatalf("coordinator does not open: %v", err)
		}
		for _, qs := range testQueries {
			if got := coordSig(t, co, qs); got != wantSig[qs] {
				t.Fatalf("%s answers differently mid-recovery", qs)
			}
		}
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}

		reps, err := ResumeSharded(out, opts())
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if len(reps) != 4 {
			t.Fatalf("recovered %d replicas, want 4", len(reps))
		}
		for i, rep := range reps {
			if rep.Epoch != 1 {
				t.Fatalf("replica %d recovered at epoch %d", i, rep.Epoch)
			}
		}
		sameSnapshots(t, want, snapshotDir(t, out), fmt.Sprintf("cut at write %d", k))
	})
}
