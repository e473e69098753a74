package pager_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
)

// fileImage is a full copy of a page file's contents.
type fileImage struct {
	pages [][]byte
}

func captureImage(t *testing.T, f pager.File) fileImage {
	t.Helper()
	var img fileImage
	buf := make([]byte, pager.PageSize)
	for id := uint32(0); id < f.NumPages(); id++ {
		if err := f.ReadPage(pager.PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		img.pages = append(img.pages, append([]byte(nil), buf...))
	}
	return img
}

func (a fileImage) equal(b fileImage) bool {
	if len(a.pages) != len(b.pages) {
		return false
	}
	for i := range a.pages {
		if !bytes.Equal(a.pages[i], b.pages[i]) {
			return false
		}
	}
	return true
}

// poolWorkload drives a deterministic random build+update workload through
// a journaled pool: page allocations, in-place updates under a pool small
// enough to force mid-transaction evictions, and periodic FlushAll commits.
// onCommit (may be nil) observes the file right after each commit point.
func poolWorkload(main, journalFile pager.File, onCommit func()) error {
	j, err := pager.NewJournal(journalFile, main)
	if err != nil {
		return err
	}
	bp, err := pager.NewJournaledPool(main, j, 4)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(42))
	var ids []pager.PageID
	for step := 0; step < 48; step++ {
		if len(ids) < 6 || rng.Intn(4) == 0 {
			p, err := bp.NewPage()
			if err != nil {
				return err
			}
			rng.Read(p.Data[:64])
			ids = append(ids, p.ID)
			p.Unpin(true)
		} else {
			p, err := bp.Get(ids[rng.Intn(len(ids))])
			if err != nil {
				return err
			}
			rng.Read(p.Data[:64])
			p.Unpin(true)
		}
		if step%12 == 11 {
			if err := bp.FlushAll(); err != nil {
				return err
			}
			if onCommit != nil {
				onCommit()
			}
		}
	}
	if err := bp.Close(); err != nil {
		return err
	}
	if onCommit != nil {
		onCommit()
	}
	return nil
}

// TestCrashSweepEveryWritePoint is the crash-point property test: the
// workload is first run cleanly to learn its write count W and the file
// image at every commit point; then it is re-run W times with the power cut
// at the k-th write-class operation (some with torn page writes), the
// frozen image is reopened, and recovery must restore exactly the image of
// the last commit that returned before the cut or of the one in flight —
// never a panic, never a checksum error, never an earlier image (a commit
// that returned is durable), never a state that no commit produced.
func TestCrashSweepEveryWritePoint(t *testing.T) {
	snaps := []fileImage{{}} // the empty file is the zeroth committed state
	var mainMem, journalMem *pager.MemFile
	done := 0 // commits the cut run completed
	run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
		mainMem, journalMem = pager.NewMemFile(), pager.NewMemFile()
		main, journalFile := pagertest.NewFaultFile(mainMem), pagertest.NewFaultFile(journalMem)
		main.SetPowerClock(clock)
		journalFile.SetPowerClock(clock)
		done = 0
		onCommit := func() { done++ }
		if k == 0 {
			onCommit = func() { snaps = append(snaps, captureImage(t, mainMem)) }
		}
		return poolWorkload(main, journalFile, onCommit)
	}
	pagertest.Sweep(t, 20, pagertest.TearEvery(3, 509), run, func(t *testing.T, k int64) {
		// "Reboot": reopen the frozen images; NewJournaledPool runs
		// recovery.
		j, err := pager.NewJournal(journalMem, mainMem)
		if err != nil {
			t.Fatalf("reopen journal: %v", err)
		}
		bp, err := pager.NewJournaledPool(mainMem, j, 4)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}

		// Every page must verify, through the pool (typed errors, no
		// panics) and raw.
		img := captureImage(t, mainMem)
		for id := range img.pages {
			if err := pager.VerifyPage(pager.PageID(id), img.pages[id]); err != nil {
				t.Errorf("after recovery: %v", err)
			}
			p, err := bp.Get(pager.PageID(id))
			if err != nil {
				t.Errorf("after recovery: Get(%d): %v", id, err)
				continue
			}
			p.Unpin(false)
		}

		// The recovered image must be exactly one of the committed
		// states: atomicity means no torn in-between state survives.
		if img.equal(snaps[done]) || done+1 < len(snaps) && img.equal(snaps[done+1]) {
			return
		}
		for i, s := range snaps {
			if img.equal(s) {
				t.Fatalf("recovered commit %d's image after %d commits returned", i, done)
			}
		}
		t.Errorf("recovered image (%d pages) matches no committed state", len(img.pages))
	})
}

// A write fault during FlushAll must leave the pool consistent: the error
// surfaces, un-flushed frames stay dirty, and after Heal a retried FlushAll
// commits everything.
func TestFlushAllWriteFaultKeepsPoolConsistent(t *testing.T) {
	mem := pager.NewMemFile()
	ff := pagertest.NewFaultFile(mem)
	j, err := pager.NewJournal(pager.NewMemFile(), ff)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := pager.NewJournaledPool(ff, j, 8)
	if err != nil {
		t.Fatal(err)
	}
	var ids []pager.PageID
	for i := 0; i < 4; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		ids = append(ids, p.ID)
		p.Unpin(true)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		p, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] |= 0x80
		p.Unpin(true)
	}

	ff.FailWritesAfter(2) // fail mid-flush, after two page writes
	err = bp.FlushAll()
	if !errors.Is(err, pagertest.ErrInjected) {
		t.Fatalf("FlushAll = %v, want ErrInjected", err)
	}
	// DropClean evicts only clean frames: dropping all four would mean the
	// failed flush marked unwritten frames clean.
	if bp.DropClean() == len(ids) {
		t.Fatal("no frame left dirty after failed flush: updates lost")
	}

	ff.Heal()
	if err := bp.FlushAll(); err != nil {
		t.Fatalf("retry after Heal: %v", err)
	}
	if j.Active() {
		t.Error("journal active after successful retry")
	}
	buf := make([]byte, pager.PageSize)
	for i, id := range ids {
		if err := mem.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := pager.VerifyPage(id, buf); err != nil {
			t.Errorf("page %d: %v", id, err)
		}
		if want := byte(i) | 0x80; buf[pager.PageHeaderSize] != want {
			t.Errorf("page %d payload = %#x, want %#x", id, buf[pager.PageHeaderSize], want)
		}
	}
}

// Close must flush dirty frames (data written through a pool that is then
// closed survives) and must propagate flush errors instead of dropping them.
func TestPoolCloseFlushesAndPropagatesErrors(t *testing.T) {
	mem := pager.NewMemFile()
	bp := pager.NewBufferPool(mem, 4)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Data[0] = 0x5A
	id := p.ID
	p.Unpin(true)
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pager.PageSize)
	if err := mem.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[pager.PageHeaderSize] != 0x5A {
		t.Error("dirty frame not flushed by Close")
	}

	ff := pagertest.NewFaultFile(pager.NewMemFile())
	bp2 := pager.NewBufferPool(ff, 4)
	p2, err := bp2.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p2.Data[0] = 1
	p2.Unpin(true)
	ff.FailWritesAfter(0)
	if err := bp2.Close(); !errors.Is(err, pagertest.ErrInjected) {
		t.Errorf("Close = %v, want ErrInjected", err)
	}
}
