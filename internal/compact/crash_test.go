package compact

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/prix"
	"repro/internal/shard"
)

// Every rename a compaction makes — the epoch publish and CURRENT through
// AtomicFile — is followed by a sync of the target's directory.
func TestCompactRenamesSyncDir(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(18))
	fs := &pagertest.RecordFS{FS: pagertest.NewFaultFS(pager.OSFS{}, pagertest.NewPowerClock(0))}
	if _, err := Run(Options{Dir: dir, MemBudget: 32 << 10, FS: fs}); err != nil {
		t.Fatal(err)
	}
	if n := fs.CheckRenamesSynced(t); n < 2 {
		t.Errorf("the compaction renamed %d times; want the epoch publish and CURRENT at least", n)
	}
}

// onlyServing fails t unless recovery left dir holding nothing a
// compaction wrote beyond the serving layout: no work directory, no CURRENT
// temp, no epoch directory but the serving one and, once an epoch serves,
// no plain page files.
func onlyServing(t *testing.T, dir string, epoch uint64) {
	t.Helper()
	names, err := pager.OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		switch {
		case name == WorkDirName, name == CurrentFile+".tmp",
			strings.HasPrefix(name, "epoch-") && name != EpochDirName(epoch),
			epoch > 0 && (name == prix.ForestFileName || name == prix.DocsFileName || name == prix.JournalFileName):
			t.Fatalf("recovery left %s in %s (serving epoch %d)", name, dir, epoch)
		}
	}
}

// TestCompactCrashSweepPlain is the power-cut sweep of the compaction
// restart contract over three back-to-back compactions of a plain dynamic
// directory — its conversion into epoch 1, then epoch 1 into epoch 2 and
// epoch 2 into epoch 3, the last two each overwriting CURRENT and retiring
// an epoch directory. It learns the total write count W, then for every k in
// 1..W reruns the three with the power
// cut (torn final write included) at the k-th write. After every cut
// OpenRoot must serve the exact pre-compaction answers from whichever
// layout CURRENT names — never a torn in-between — writing no page to do
// so and leaving nothing of the compactions but the serving layout. The
// root then converges on the uninterrupted layout byte for byte once Run
// has brought it to epoch 3: recovery alone when every commit landed.
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

	const epochs = 3
	// Uninterrupted baseline.
	baseDir := filepath.Join(base, "base")
	copyTree(t, pristine, baseDir)
	for e := 0; e < epochs; e++ {
		if _, err := Run(opts(baseDir)); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotDir(t, baseDir)

	out := filepath.Join(base, "cut")
	run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
		if err := os.RemoveAll(out); err != nil {
			t.Fatal(err)
		}
		copyTree(t, pristine, out)
		o := opts(out)
		o.FS = pagertest.NewFaultFS(pager.OSFS{}, clock)
		o.OpenFile = pagertest.FaultOpen(clock)
		for e := 0; e < epochs; e++ {
			if _, err := Run(o); err != nil {
				return err
			}
		}
		if k == 0 {
			// The faulted but never-cut runs must still produce the baseline bytes.
			sameSnapshots(t, want, snapshotDir(t, out), "counting run")
		}
		return nil
	}
	pagertest.Sweep(t, 10, func(int64) int { return pager.PageSize / 3 }, run, func(t *testing.T, k int64) {
		// A server restarted right after the cut serves at once: CURRENT
		// commits via an atomic rename, so the root resolves to a whole
		// layout, and recovery only deletes.
		pages := pagertest.NewPowerClock(0)
		root, err := OpenRoot(out, prix.Options{OpenFile: pagertest.FaultOpen(pages)})
		if err != nil {
			t.Fatalf("root does not open: %v", err)
		}
		if n := pages.Writes(); n != 0 {
			t.Fatalf("opening the root after the cut made %d page writes", n)
		}
		if root.NumDocs() != len(docs) {
			t.Fatalf("serving layout has %d docs, want %d", root.NumDocs(), len(docs))
		}
		for _, qs := range testQueries {
			if got := querySig(t, root, qs); got != wantSig[qs] {
				t.Fatalf("%s answers differently on the surviving layout", qs)
			}
		}
		epoch := root.Epoch()
		if err := root.Close(); err != nil {
			t.Fatal(err)
		}
		onlyServing(t, out, epoch)
		for e := epoch; e < epochs; e++ {
			if _, err := Run(opts(out)); err != nil {
				t.Fatalf("rerun from epoch %d: %v", e, err)
			}
		}
		sameSnapshots(t, want, snapshotDir(t, out), fmt.Sprintf("cut at write %d (epoch %d served)", k, epoch))
	})
}

// TestCompactCrashSweepSharded runs the same per-ordinal sweep over a
// sharded, replicated layout (four shards of two replicas): a cut strands
// some replicas compacted, one mid-flight, the rest untouched. The coordinator must still open and
// answer identically; then per replica, recovery leaves only the serving
// layout, and the replicas still at epoch 0 compact again into the
// baseline bytes.
func TestCompactCrashSweepSharded(t *testing.T) {
	base := t.TempDir()
	docs := corpus(16)
	pristine := filepath.Join(base, "pristine")
	if _, err := shard.Build(pristine, docs, shard.BuildConfig{Shards: 4, Replicas: 2, Epoch: 1}); err != nil {
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
	run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
		if err := os.RemoveAll(out); err != nil {
			t.Fatal(err)
		}
		copyTree(t, pristine, out)
		o := opts()
		o.FS = pagertest.NewFaultFS(pager.OSFS{}, clock)
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

		topo, err := shard.LoadTopology(out)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < topo.Shards; s++ {
			for r := 0; r < topo.Replicas; r++ {
				dir := shard.ReplicaDir(out, s, r)
				epoch, err := recoverRoot(pager.OSFS{}, dir)
				if err != nil {
					t.Fatalf("%s replica %d: recovery: %v", shard.Name(s), r, err)
				}
				onlyServing(t, dir, epoch)
				if epoch > 0 {
					continue
				}
				o := opts()
				o.Dir = dir
				if _, err := Run(o); err != nil {
					t.Fatalf("%s replica %d: rerun: %v", shard.Name(s), r, err)
				}
			}
		}
		sameSnapshots(t, want, snapshotDir(t, out), fmt.Sprintf("cut at write %d", k))
	})
}
