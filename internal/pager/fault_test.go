package pager_test

import (
	"errors"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
)

// Probabilistic faults must be deterministic per seed: two files configured
// identically fail on exactly the same operations.
func TestProbabilisticFaultsDeterministic(t *testing.T) {
	pattern := func() []bool {
		f := pagertest.NewFaultFile(pager.NewMemFile())
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		f.FailWritesWithRate(0.5, 1234)
		buf := make([]byte, pager.PageSize)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, f.WritePage(id, buf) != nil)
		}
		return out
	}
	a, b := pattern(), pattern()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: same seed, different outcome", i)
		}
		if a[i] {
			fails++
		}
	}
	// With rate 0.5 over 200 ops, both all-fail and none-fail mean the rate
	// is not being applied.
	if fails == 0 || fails == len(a) {
		t.Errorf("rate 0.5 produced %d/%d failures", fails, len(a))
	}
}

func TestProbabilisticRateBounds(t *testing.T) {
	f := pagertest.NewFaultFile(pager.NewMemFile())
	id, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pager.PageSize)
	f.FailReadsWithRate(1.0, 9)
	if err := f.ReadPage(id, buf); !errors.Is(err, pagertest.ErrInjected) {
		t.Errorf("rate 1.0 read = %v, want ErrInjected", err)
	}
	f.Heal()
	for i := 0; i < 100; i++ {
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatalf("healed read %d: %v", i, err)
		}
	}
}

// Close must honor a pending write fault like Sync does: a flush-on-close
// path cannot silently swallow a scheduled failure.
func TestCloseHonorsPendingWriteFault(t *testing.T) {
	f := pagertest.NewFaultFile(pager.NewMemFile())
	f.FailWritesAfter(0)
	if err := f.Close(); !errors.Is(err, pagertest.ErrInjected) {
		t.Errorf("Close = %v, want ErrInjected", err)
	}
}

func TestFlipBitBounds(t *testing.T) {
	f := pager.NewMemFile()
	if _, err := f.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := pagertest.FlipBit(f, 0, -1); err == nil {
		t.Error("negative bit accepted")
	}
	if err := pagertest.FlipBit(f, 0, pager.PageSize*8); err == nil {
		t.Error("out-of-range bit accepted")
	}
	if err := pagertest.FlipBit(f, 0, 0); err != nil {
		t.Errorf("valid flip: %v", err)
	}
	buf := make([]byte, pager.PageSize)
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Errorf("bit 0 not flipped: %#x", buf[0])
	}
}

// After a power cut everything fails, including reads: the image is frozen.
func TestPowerCutFreezesFile(t *testing.T) {
	f := pagertest.NewFaultFile(pager.NewMemFile())
	clock := pagertest.NewPowerClock(2)
	f.SetPowerClock(clock)
	id, err := f.Allocate() // write op 1
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pager.PageSize)
	if err := f.WritePage(id, buf); !errors.Is(err, pagertest.ErrPowerCut) { // op 2: cut
		t.Fatalf("cut write = %v, want ErrPowerCut", err)
	}
	if err := f.ReadPage(id, buf); !errors.Is(err, pagertest.ErrPowerCut) {
		t.Errorf("post-cut read = %v, want ErrPowerCut", err)
	}
	if err := f.Sync(); !errors.Is(err, pagertest.ErrPowerCut) {
		t.Errorf("post-cut sync = %v, want ErrPowerCut", err)
	}
	// Heal does not revive a cut clock.
	f.Heal()
	if err := f.ReadPage(id, buf); !errors.Is(err, pagertest.ErrPowerCut) {
		t.Errorf("healed post-cut read = %v, want ErrPowerCut", err)
	}
}

// A torn cut persists a prefix of the cutting write.
func TestPowerCutTornWrite(t *testing.T) {
	mem := pager.NewMemFile()
	f := pagertest.NewFaultFile(mem)
	id, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	old := make([]byte, pager.PageSize)
	for i := range old {
		old[i] = 0xAA
	}
	if err := f.WritePage(id, old); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	clock := pagertest.NewPowerClock(1)
	clock.SetTornBytes(100)
	f.SetPowerClock(clock)
	newBuf := make([]byte, pager.PageSize)
	for i := range newBuf {
		newBuf[i] = 0xBB
	}
	if err := f.WritePage(id, newBuf); !errors.Is(err, pagertest.ErrPowerCut) {
		t.Fatalf("torn write = %v, want ErrPowerCut", err)
	}
	got := make([]byte, pager.PageSize)
	if err := mem.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got[i] != 0xBB {
			t.Fatalf("byte %d = %#x, want new prefix", i, got[i])
		}
	}
	for i := 100; i < pager.PageSize; i++ {
		if got[i] != 0xAA {
			t.Fatalf("byte %d = %#x, want old suffix", i, got[i])
		}
	}
}

func TestFaultFilePassthroughAndHeal(t *testing.T) {
	f := pagertest.NewFaultFile(pager.NewMemFile())
	id, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pager.PageSize)
	copy(buf, "data")
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	f.FailReadsAfter(0)
	if err := f.ReadPage(id, buf); err == nil {
		t.Error("scheduled read fault did not fire")
	}
	f.Heal()
	if err := f.ReadPage(id, buf); err != nil {
		t.Errorf("read after heal: %v", err)
	}
	f.FailWritesAfter(1)
	if err := f.WritePage(id, buf); err != nil {
		t.Errorf("first write should pass: %v", err)
	}
	if err := f.Sync(); err == nil {
		t.Error("second write op (sync) should fail")
	}
	f.Heal()
	if f.NumPages() != 1 {
		t.Errorf("NumPages = %d", f.NumPages())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
