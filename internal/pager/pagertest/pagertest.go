// Package pagertest is the power-cut crash-sweep driver shared by the
// storage packages' tests. It is imported only by _test.go files.
package pagertest

import (
	"errors"
	"fmt"
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

// Sweep cuts power at every write point of a workload. It runs the workload
// once on a counting clock to learn its write count W (k = 0), failing if W
// is below minWrites; then, for each k in 1..W, in a "cut=k" subtest, it
// runs the workload on a clock that cuts at write k — the cutting page
// write persisting its first tear(k) bytes when tear is set — requires the
// run to fail with ErrPowerCut at the cut, and calls recovered to check the
// crash image it left. run tells the counting run from a cut by k.
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
	for k := int64(1); k <= w; k++ {
		t.Run(fmt.Sprintf("cut=%d", k), func(t *testing.T) {
			clock := pager.NewPowerClock(k)
			if tear != nil {
				clock.SetTornBytes(tear(k))
			}
			err := run(t, k, clock)
			if err == nil {
				t.Fatalf("the workload survived a power cut at write %d/%d", k, w)
			}
			if !clock.DidCut() {
				t.Fatalf("the workload failed before the cut at write %d/%d: %v", k, w, err)
			}
			if !errors.Is(err, pager.ErrPowerCut) {
				t.Fatalf("the workload died of %v at the cut at write %d/%d, want ErrPowerCut", err, k, w)
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
