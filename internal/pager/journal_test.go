package pager_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
)

// sealInto writes a sealed page with a recognizable payload into f.
func sealInto(t *testing.T, f pager.File, id pager.PageID, fill byte) []byte {
	t.Helper()
	phys := make([]byte, pager.PageSize)
	for i := pager.PageHeaderSize; i < pager.PageSize; i++ {
		phys[i] = fill
	}
	pager.SealPage(id, phys)
	if err := f.WritePage(id, phys); err != nil {
		t.Fatal(err)
	}
	return phys
}

func allocN(t *testing.T, f pager.File, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
}

// committedFile returns a file of n sealed pages, page i filled with 'a'+i,
// and their images.
func committedFile(t *testing.T, n int) (*pager.MemFile, [][]byte) {
	t.Helper()
	main := pager.NewMemFile()
	allocN(t, main, n)
	var images [][]byte
	for id := pager.PageID(0); id < pager.PageID(n); id++ {
		images = append(images, sealInto(t, main, id, byte('a'+id)))
	}
	return main, images
}

func requireImages(t *testing.T, f pager.File, images [][]byte) {
	t.Helper()
	if got := f.NumPages(); got != uint32(len(images)) {
		t.Errorf("NumPages = %d, want %d (orphan pages not truncated)", got, len(images))
	}
	buf := make([]byte, pager.PageSize)
	for id := range images {
		if err := f.ReadPage(pager.PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, images[id]) {
			t.Errorf("page %d not restored to its before-image", id)
		}
	}
}

// tag dirties page id of bp with byte b.
func tag(t *testing.T, bp *pager.BufferPool, id pager.PageID, b byte) {
	t.Helper()
	p, err := bp.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Data[0] = b
	p.Unpin(true)
}

// A pool that evicts dirty pages mid-transaction writes them in place —
// committed pages after their before-images, new pages growing the file —
// and a crash before the commit rolls all of it back: every before-image
// restored, the file cut back to its committed length.
func TestJournalRollbackRestoresBeforeImages(t *testing.T) {
	main, images := committedFile(t, 3)
	jf := pager.NewMemFile()
	j, err := pager.NewJournal(jf, main)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := pager.NewJournaledPool(main, j, 2)
	if err != nil {
		t.Fatal(err)
	}
	tag(t, bp, 0, 'X')
	tag(t, bp, 1, 'Y')
	tag(t, bp, 2, 'Z') // evicts page 0
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(true)      // evicts page 1
	tag(t, bp, 0, 'W') // evicts page 2
	tag(t, bp, 1, 'V') // evicts the new page 3: the file grows
	if !j.Active() || main.NumPages() != 4 {
		t.Fatalf("mid-transaction: journal active %v, file %d pages; want true, 4", j.Active(), main.NumPages())
	}
	// Crash: the pool is abandoned, the files reopened.
	j2, err := pager.NewJournal(jf, main)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.RolledBack() || j2.Active() {
		t.Fatalf("reopen: rolled back %v, active %v; want true, false", j2.RolledBack(), j2.Active())
	}
	requireImages(t, main, images)
}

// After a completed commit the journal is inactive: reopening it rolls
// nothing back.
func TestJournalCommitIsDurablePoint(t *testing.T) {
	main, _ := committedFile(t, 2)
	jf := pager.NewMemFile()
	j, err := pager.NewJournal(jf, main)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := pager.NewJournaledPool(main, j, 8)
	if err != nil {
		t.Fatal(err)
	}
	tag(t, bp, 1, 'b')
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if j.Active() {
		t.Fatal("journal active after the commit")
	}
	want := make([]byte, pager.PageSize)
	if err := main.ReadPage(1, want); err != nil {
		t.Fatal(err)
	}
	j2, err := pager.NewJournal(jf, main)
	if err != nil || j2.RolledBack() {
		t.Fatalf("reopen after the commit: rolled back %v, %v", j2 != nil && j2.RolledBack(), err)
	}
	got := make([]byte, pager.PageSize)
	if err := main.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || got[pager.PageHeaderSize] != 'b' {
		t.Error("committed image lost")
	}
}

// A before-image that no longer matches its record's checksum, or that
// never reached the journal file, ends the rollback there: the records
// before it are restored, it and everything after it are not, and the
// journal is still deactivated.
func TestRecoverIgnoresUntrustedTail(t *testing.T) {
	for name, damage := range map[string]func(jf *pager.MemFile) error{
		"flipped": func(jf *pager.MemFile) error { return pagertest.FlipBit(jf, 3, 9*8) },
		"missing": func(jf *pager.MemFile) error { return jf.Truncate(3) },
	} {
		t.Run(name, func(t *testing.T) {
			main, images := committedFile(t, 3)
			jf := pager.NewMemFile()
			j, err := pager.NewJournal(jf, main)
			if err != nil {
				t.Fatal(err)
			}
			bp, err := pager.NewJournaledPool(main, j, 1)
			if err != nil {
				t.Fatal(err)
			}
			tag(t, bp, 0, 'X')
			tag(t, bp, 1, 'Y') // evicts page 0: a segment of one record at journal page 0, image at 1
			tag(t, bp, 2, 'Z') // evicts page 1: a second segment, table at 2, image at 3
			if err := damage(jf); err != nil {
				t.Fatal(err)
			}
			j2, err := pager.NewJournal(jf, main)
			if err != nil {
				t.Fatal(err)
			}
			if !j2.RolledBack() || j2.Active() {
				t.Fatalf("rolled back %v, active %v; want true, false", j2.RolledBack(), j2.Active())
			}
			buf := make([]byte, pager.PageSize)
			if err := main.ReadPage(0, buf); err != nil || !bytes.Equal(buf, images[0]) {
				t.Errorf("page 0 (trusted record) not restored: %v", err)
			}
			if err := main.ReadPage(1, buf); err != nil || buf[pager.PageHeaderSize] != 'Y' {
				t.Errorf("page 1 (untrusted record) was replayed: %v", err)
			}
		})
	}
}

// A table of more record headers than one page holds spills to further
// table pages, and a rollback through it restores every image.
func TestJournalTableSpills(t *testing.T) {
	const n = 700
	main, images := committedFile(t, n)
	if pager.TablePages(n, 1) != 2 {
		t.Fatalf("a %d-record table takes %d pages; the test wants a spill", n, pager.TablePages(n, 1))
	}
	jf := pager.NewMemFile()
	j, err := pager.NewJournal(jf, main)
	if err != nil {
		t.Fatal(err)
	}
	faulty := pagertest.NewFaultFile(main)
	bp, err := pager.NewJournaledPool(faulty, j, n)
	if err == nil {
		t.Fatal("a pool over a file the journal does not know was attached")
	}
	j, err = pager.NewJournal(jf, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if bp, err = pager.NewJournaledPool(faulty, j, n); err != nil {
		t.Fatal(err)
	}
	for id := pager.PageID(0); id < n; id++ {
		tag(t, bp, id, 'X')
	}
	faulty.FailWritesAfter(n / 2)
	if err := bp.FlushAll(); !errors.Is(err, pagertest.ErrInjected) {
		t.Fatalf("FlushAll = %v, want ErrInjected", err)
	}
	if jf.NumPages() != 2+n {
		t.Fatalf("journal holds %d pages, want %d: two table pages and the images", jf.NumPages(), 2+n)
	}
	faulty.Heal()
	if err := faulty.Sync(); err != nil {
		t.Fatal(err)
	}
	j2, err := pager.NewJournal(jf, main)
	if err != nil || !j2.RolledBack() {
		t.Fatalf("reopen: rolled back %v, %v", j2 != nil && j2.RolledBack(), err)
	}
	requireImages(t, main, images)
}

// Two pools on one journal commit as one transaction: a commit that dies
// after the first file's write-back rolls both files back.
func TestJournalCommitSpansFiles(t *testing.T) {
	a, aImages := committedFile(t, 2)
	b, bImages := committedFile(t, 2)
	fb := pagertest.NewFaultFile(b)
	jf := pager.NewMemFile()
	j, err := pager.NewJournal(jf, a, fb)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := pager.NewJournaledPool(a, j, 8)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pager.NewJournaledPool(fb, j, 8)
	if err != nil {
		t.Fatal(err)
	}
	tag(t, pa, 0, 'X')
	tag(t, pb, 1, 'Y')
	p, err := pb.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(true)
	fb.FailWritesAfter(0)
	if err := pa.FlushAll(); !errors.Is(err, pagertest.ErrInjected) {
		t.Fatalf("FlushAll = %v, want ErrInjected", err)
	}
	if a.NumPages() != 2 {
		t.Fatal("file a grew")
	}
	buf := make([]byte, pager.PageSize)
	if err := a.ReadPage(0, buf); err != nil || buf[pager.PageHeaderSize] != 'X' {
		t.Fatalf("file a was not written before the fault: %v", err)
	}
	j2, err := pager.NewJournal(jf, a, b)
	if err != nil || !j2.RolledBack() {
		t.Fatalf("reopen: rolled back %v, %v", j2 != nil && j2.RolledBack(), err)
	}
	requireImages(t, a, aImages)
	requireImages(t, b, bImages)
}

// Close truncates a journal its last commit left inactive to zero pages, and
// the next open of the pair starts a fresh transaction from it. A journal
// still active (the commit failed) is left whole for recovery.
func TestCloseReleasesJournal(t *testing.T) {
	main, jf := pager.NewMemFile(), pager.NewMemFile()
	j, err := pager.NewJournal(jf, main)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := pager.NewJournaledPool(main, j, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i + 1)
		p.Unpin(true)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A second commit overwrites a committed page, so it journals a record.
	tag(t, bp, 1, 9)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if jf.NumPages() == 0 {
		t.Fatal("the commit left no journal pages to release")
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	if n := jf.NumPages(); n != 0 {
		t.Fatalf("Close left %d journal pages, want 0", n)
	}

	// Reopen over the released journal and fail the next commit's in-place
	// write: the transaction stays open, and Close leaves its journal whole.
	faulty := pagertest.NewFaultFile(main)
	if j, err = pager.NewJournal(jf, faulty); err != nil || j.Active() {
		t.Fatalf("a released journal reopens as %v, %v", j, err)
	}
	if bp, err = pager.NewJournaledPool(faulty, j, 8); err != nil {
		t.Fatal(err)
	}
	tag(t, bp, 2, 7)
	faulty.FailWritesAfter(0)
	if err := bp.Close(); err == nil {
		t.Fatal("Close with a failing write reported no error")
	}
	if jf.NumPages() == 0 {
		t.Fatal("a failed commit's journal was released")
	}
	if j, err = pager.NewJournal(jf, main); err != nil || !j.RolledBack() {
		t.Fatalf("a failed commit's journal reopens rolled back %v, %v", j != nil && j.RolledBack(), err)
	}
}
