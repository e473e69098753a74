// Package pagertest is the power-cut crash-sweep driver shared by the
// storage packages' tests. It is imported only by _test.go files.
package pagertest

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/pager"
)

// FaultOpen returns a prix.Options.OpenFile hook that opens each page file
// from the OS and attaches clock to it, so page writes tick the same
// ordinals as the FaultFS artifacts beside them.
func FaultOpen(clock *pager.PowerClock) func(string) (pager.File, error) {
	return func(path string) (pager.File, error) {
		f, err := pager.OpenOSFilePadded(path)
		if err != nil {
			return nil, err
		}
		ff := pager.NewFaultFile(f)
		ff.SetPowerClock(clock)
		return ff, nil
	}
}

// Sweep cuts power at every write point of a workload under each of the
// three ways a cut can treat what no Sync made durable (pager.LoseAll,
// LoseSubset, TearLast). It runs the workload once on a counting clock to
// learn its write count W (k = 0), failing if W is below minWrites; then,
// for each k in 1..3W, in a "cut=k" subtest, it runs the workload on a clock
// that cuts at write (k-1)%W + 1 under loss (k-1)/W — the subset seeded by
// k, the cutting page write persisting its first tear(k) bytes when tear is
// set — requires the run to fail with ErrPowerCut at the cut, and calls
// recovered to check the crash image it left. run tells the counting run
// from a cut by k; a cut's k is unique.
func Sweep(t *testing.T, minWrites int64, tear func(k int64) int,
	run func(t *testing.T, k int64, clock *pager.PowerClock) error,
	recovered func(t *testing.T, k int64)) {
	t.Helper()
	counting := pager.NewPowerClock(0)
	if err := run(t, 0, counting); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	w := counting.Writes()
	t.Logf("W = %d write points", w)
	if w < minWrites {
		t.Fatalf("the workload performs %d writes, want at least %d", w, minWrites)
	}
	for k := int64(1); k <= 3*w; k++ {
		at, loss := (k-1)%w+1, pager.Loss((k-1)/w)
		t.Run(fmt.Sprintf("cut=%d", k), func(t *testing.T) {
			clock := pager.NewPowerClock(at)
			clock.SetLoss(loss, k)
			if tear != nil {
				clock.SetTornBytes(tear(k))
			}
			err := run(t, k, clock)
			if err == nil {
				t.Fatalf("the workload survived a power cut at write %d/%d", at, w)
			}
			if !clock.DidCut() {
				t.Fatalf("the workload failed before the cut at write %d/%d: %v", at, w, err)
			}
			if !errors.Is(err, pager.ErrPowerCut) {
				t.Fatalf("the workload died of %v at the cut at write %d/%d, want ErrPowerCut", err, at, w)
			}
			recovered(t, k)
		})
	}
}

// TearEvery is a tear rule for Sweep: the cut at every n-th ordinal k
// persists the first k*mul mod PageSize bytes of its page write; the other
// cuts persist none of it.
func TearEvery(n, mul int64) func(k int64) int {
	return func(k int64) int {
		if k%n != 0 {
			return 0
		}
		return int(k*mul) % pager.PageSize
	}
}

// RecordFS wraps an FS and logs its renames and directory syncs, so a test
// can require every rename to be made durable by a sync of its target's
// parent directory.
type RecordFS struct {
	pager.FS
	mu  sync.Mutex
	ops []string
}

// Rename implements pager.FS.
func (r *RecordFS) Rename(oldPath, newPath string) error {
	r.log("rename " + newPath)
	return r.FS.Rename(oldPath, newPath)
}

// SyncDir implements pager.FS.
func (r *RecordFS) SyncDir(path string) error {
	r.log("syncdir " + path)
	return r.FS.SyncDir(path)
}

func (r *RecordFS) log(op string) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// CheckRenamesSynced fails t for every rename that no SyncDir of its
// target's parent follows before the next rename — a later rename must not
// become durable without the earlier one — and if the log holds no rename at
// all. It returns the number of renames checked.
func (r *RecordFS) CheckRenamesSynced(t *testing.T) int {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	renames := 0
	for i, op := range r.ops {
		target, ok := strings.CutPrefix(op, "rename ")
		if !ok {
			continue
		}
		renames++
		next := r.ops[i+1:]
		if j := slices.IndexFunc(next, func(op string) bool { return strings.HasPrefix(op, "rename ") }); j >= 0 {
			next = next[:j]
		}
		if !slices.Contains(next, "syncdir "+filepath.Dir(target)) {
			t.Errorf("rename to %s is not followed by a sync of its directory", target)
		}
	}
	if renames == 0 {
		t.Error("the workload renamed nothing")
	}
	return renames
}
