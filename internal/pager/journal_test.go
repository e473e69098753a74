package pager

import (
	"bytes"
	"testing"
)

// sealInto writes a sealed page with a recognizable payload into f.
func sealInto(t *testing.T, f File, id PageID, fill byte) []byte {
	t.Helper()
	phys := make([]byte, PageSize)
	for i := PageHeaderSize; i < PageSize; i++ {
		phys[i] = fill
	}
	SealPage(id, phys)
	if err := f.WritePage(id, phys); err != nil {
		t.Fatal(err)
	}
	return phys
}

func allocN(t *testing.T, f File, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalRollbackRestoresBeforeImages(t *testing.T) {
	main := NewMemFile()
	allocN(t, main, 3)
	var images [][]byte
	for id := PageID(0); id < 3; id++ {
		images = append(images, sealInto(t, main, id, byte('a'+id)))
	}

	j, err := NewJournal(NewMemFile())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(3); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, images[1]); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	// The "transaction": overwrite page 1, append page 3.
	sealInto(t, main, 1, 'X')
	allocN(t, main, 1)
	sealInto(t, main, 3, 'Y')

	restored, err := j.Recover(main)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("Recover reported nothing to do")
	}
	if j.Active() {
		t.Error("journal still active after recovery")
	}
	if got := main.NumPages(); got != 3 {
		t.Errorf("NumPages = %d, want 3 (orphan page not truncated)", got)
	}
	buf := make([]byte, PageSize)
	for id := PageID(0); id < 3; id++ {
		if err := main.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, images[id]) {
			t.Errorf("page %d not restored to before-image", id)
		}
		if err := VerifyPage(id, buf); err != nil {
			t.Errorf("restored page %d: %v", id, err)
		}
	}
}

func TestJournalCommitIsDurablePoint(t *testing.T) {
	main := NewMemFile()
	allocN(t, main, 1)
	before := sealInto(t, main, 0, 'a')

	j, err := NewJournal(NewMemFile())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, before); err != nil {
		t.Fatal(err)
	}
	after := sealInto(t, main, 0, 'b')
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if j.Active() {
		t.Fatal("journal active after Commit")
	}
	// Recovery after a completed commit must NOT roll back.
	restored, err := j.Recover(main)
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		t.Error("Recover rolled back a committed transaction")
	}
	buf := make([]byte, PageSize)
	if err := main.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, after) {
		t.Error("committed image lost")
	}
}

// A journal whose record was never (fully) synced — simulated by scribbling
// its header page — must not restore garbage: recovery stops at the first
// untrusted record but still deactivates.
func TestRecoverIgnoresUntrustedTail(t *testing.T) {
	main := NewMemFile()
	allocN(t, main, 1)
	before := sealInto(t, main, 0, 'a')

	jf := NewMemFile()
	j, err := NewJournal(jf)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, before); err != nil {
		t.Fatal(err)
	}
	// Corrupt the record header (journal page 1): the torn-append case.
	if err := FlipBit(jf, 1, 9*8); err != nil {
		t.Fatal(err)
	}
	after := sealInto(t, main, 0, 'b')

	j2, err := NewJournal(jf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Recover(main); err != nil {
		t.Fatal(err)
	}
	if j2.Active() {
		t.Error("journal still active")
	}
	buf := make([]byte, PageSize)
	if err := main.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, after) {
		t.Error("untrusted record was replayed")
	}
}

// Close truncates a journal its last commit left inactive to zero pages, and
// the next open of the pair starts a fresh transaction from it. A journal
// still active (the commit failed) is left whole for Recover.
func TestCloseReleasesJournal(t *testing.T) {
	main, jf := NewMemFile(), NewMemFile()
	j, err := NewJournal(jf)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewJournaledPool(main, j, 8)
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
	p, err := bp.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Data[0] = 9
	p.Unpin(true)
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
	if j, err = NewJournal(jf); err != nil || j.Active() {
		t.Fatalf("a released journal reopens as %v, %v", j, err)
	}
	faulty := NewFaultFile(main)
	if bp, err = NewJournaledPool(faulty, j, 8); err != nil {
		t.Fatal(err)
	}
	if p, err = bp.Get(2); err != nil {
		t.Fatal(err)
	}
	p.Data[0] = 7
	p.Unpin(true)
	faulty.FailWritesAfter(0)
	if err := bp.Close(); err == nil {
		t.Fatal("Close with a failing write reported no error")
	}
	if j, err = NewJournal(jf); err != nil || !j.Active() || jf.NumPages() == 0 {
		t.Fatalf("a failed commit's journal: %d pages, reopened %v, %v", jf.NumPages(), j, err)
	}
	if ok, err := j.Recover(main); !ok || err != nil {
		t.Fatalf("Recover = %v, %v", ok, err)
	}
}
