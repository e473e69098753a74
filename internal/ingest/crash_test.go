package ingest

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

func TestCrashSweepPlain(t *testing.T)   { crashSweep(t, 0, 0) }
func TestCrashSweepSharded(t *testing.T) { crashSweep(t, 2, 2) }

// crashSweep is the power-cut sweep of the restart contract. Its workload is
// a build followed by the recovery command itself, the same build again
// over the finished index, and it cuts at every write-class operation of
// both — the run's writes, spill chunks, the removal of the old index,
// replica clones, topology, and every index page write alike. It checks
// the crash image before any recovery: an image holding a build's commit
// record (topology.json for a sharded layout, an index that opens for a
// plain one) must be the complete index, byte-identical to an
// uninterrupted build, and any other image must refuse to open. Then it
// reruns the build on a healthy stack and asserts that the index is
// byte-identical too.
func crashSweep(t *testing.T, shards, replicas int) {
	dir := t.TempDir()
	input := filepath.Join(dir, "corpus.xml")
	const n = 90
	const skips = 2
	writeCorpus(t, input, n, map[int]string{11: "syntax", 47: "deep"})

	opts := func(out string) Options {
		o := baseOptions(input, out)
		o.Shards = shards
		o.Replicas = replicas
		o.SkipBudget = skips
		return o
	}

	// Uninterrupted baseline.
	base := filepath.Join(dir, "base")
	if _, err := Run(opts(base)); err != nil {
		t.Fatal(err)
	}
	want := readIndexFiles(t, base)

	out := filepath.Join(dir, "cut")
	run := func(t *testing.T, k int64, clock *pager.PowerClock) error {
		if err := os.RemoveAll(out); err != nil {
			t.Fatal(err)
		}
		o := opts(out)
		o.FS = pager.NewFaultFS(pager.OSFS{}, clock)
		o.OpenFile = pagertest.FaultOpen(clock)
		_, err := Run(o)
		if err == nil {
			_, err = Run(o)
		}
		if k == 0 && err == nil {
			// The faulted-but-never-cut build must still match the baseline.
			sameFiles(t, want, readIndexFiles(t, out), "counting run")
		}
		return err
	}
	pagertest.Sweep(t, 60, func(int64) int { return pager.PageSize / 3 }, run, func(t *testing.T, k int64) {
		label := fmt.Sprintf("cut at write %d", k)
		if docs, ok := openImage(t, out, shards > 0); ok {
			if docs != n-skips {
				t.Fatalf("%s: the crash image opens with %d docs, want %d", label, docs, n-skips)
			}
			sameFiles(t, want, readIndexFiles(t, out), label+", before recovery")
		}
		// Recovery is running the build again.
		rep, err := Run(opts(out))
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if rep.Docs != n-skips || rep.Skips != skips {
			t.Fatalf("recovered build reports %d docs / %d skips, want %d/%d", rep.Docs, rep.Skips, n-skips, skips)
		}
		sameFiles(t, want, readIndexFiles(t, out), label)
	})
}

// openImage opens a crash image the way a server would and reports its
// document count, or ok=false when it refuses to open. A sharded image with
// topology.json, its commit record, must open.
func openImage(t *testing.T, out string, sharded bool) (docs int, ok bool) {
	t.Helper()
	if !sharded {
		ix, err := prix.Open(out, prix.Options{})
		if err != nil {
			return 0, false
		}
		defer ix.Close()
		return ix.NumDocs(), true
	}
	_, statErr := os.Stat(filepath.Join(out, shard.TopologyFile))
	c, err := shard.Open(out, prix.Options{}, shard.Config{})
	switch {
	case statErr != nil && err == nil:
		c.Close()
		t.Fatal("a crash image without topology.json opens")
	case statErr == nil && err != nil:
		t.Fatalf("a crash image with topology.json refuses to open: %v", err)
	case err != nil:
		return 0, false
	}
	defer c.Close()
	return c.Stats().Docs, true
}
