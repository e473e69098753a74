package ingest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
)

func TestCrashSweepPlain(t *testing.T)   { crashSweep(t, 0, 0) }
func TestCrashSweepSharded(t *testing.T) { crashSweep(t, 2, 2) }

// crashSweep is the power-cut sweep of the resume contract: it cuts the
// build at every write-class operation — run-file writes, manifest commits,
// spill chunks, replica clones, topology, and every index page write alike
// — resumes with a healthy stack, and asserts the final index is
// byte-identical to an uninterrupted build.
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
		if k == 0 && err == nil {
			// The faulted-but-never-cut build must still match the baseline.
			sameFiles(t, want, readIndexFiles(t, out), "counting run")
		}
		return err
	}
	pagertest.Sweep(t, 50, func(int64) int { return pager.PageSize / 3 }, run, func(t *testing.T, k int64) {
		// Resume on a healthy stack. A cut before the first durable
		// checkpoint legitimately reports nothing to resume — the recovery
		// there is a fresh run.
		rep, err := Resume(opts(out))
		if errors.Is(err, ErrNoManifest) {
			rep, err = Run(opts(out))
		}
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if rep.Docs != n-skips || rep.Skips != skips {
			t.Fatalf("recovered build reports %d docs / %d skips, want %d/%d", rep.Docs, rep.Skips, n-skips, skips)
		}
		sameFiles(t, want, readIndexFiles(t, out), fmt.Sprintf("cut at write %d", k))
	})
}
