package pager

import (
	"errors"
	"slices"
	"testing"
)

// journaledPool returns a pool over fresh in-memory files with n committed
// pages, each tagged with its index in byte 0.
func journaledPool(t *testing.T, main, journalFile File, n, capacity int) (*BufferPool, []PageID) {
	t.Helper()
	j, err := NewJournal(journalFile, main)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewJournaledPool(main, j, capacity)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]PageID, n)
	for i := range ids {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		ids[i] = p.ID
		p.Unpin(true)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return bp, ids
}

func dirtyPages(t *testing.T, bp *BufferPool, ids []PageID, tag byte) {
	t.Helper()
	for _, id := range ids {
		p, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[1] = tag
		p.Unpin(true)
	}
}

// A journaled commit of pages that existed at the last commit — before-image
// read, journal record, seal, write-back — builds everything in scratch the
// pool and the journal own: after the first one it allocates nothing.
func TestFlushAllAllocs(t *testing.T) {
	const k = 8
	bp, ids := journaledPool(t, NewMemFile(), NewMemFile(), k, 2*k)
	tag := byte(0)
	commit := func() {
		tag++
		dirtyPages(t, bp, ids, tag)
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	commit() // grows the journal file and allocates the scratch
	before := bp.Stats().Writes
	if n := testing.AllocsPerRun(20, commit); n != 0 {
		t.Errorf("journaled FlushAll of %d pages allocates %v objects, want 0", k, n)
	}
	if got := bp.Stats().Writes - before; got != 21*k {
		t.Errorf("%d pages written back, want %d", got, 21*k)
	}
}

// orderFile records the ids WritePage sees.
type orderFile struct {
	File
	writes []PageID
}

func (f *orderFile) WritePage(id PageID, buf []byte) error {
	f.writes = append(f.writes, id)
	return f.File.WritePage(id, buf)
}

// Dirty frames go to the journal and to the file in ascending page id, so a
// crash-sweep ordinal names the same write on every run (map order did not).
func TestFlushAllWritesInPageOrder(t *testing.T) {
	main := &orderFile{File: NewMemFile()}
	journalFile := &orderFile{File: NewMemFile()}
	bp, ids := journaledPool(t, main, journalFile, 24, 32)
	for round := 0; round < 5; round++ {
		main.writes, journalFile.writes = nil, nil
		shuffled := slices.Clone(ids)
		for i := range shuffled { // a different dirtying order each round
			j := (i*7 + round*5) % len(shuffled)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		dirtyPages(t, bp, shuffled, byte(round+1))
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(main.writes, ids) {
			t.Fatalf("round %d: pages written in order %v, want ascending %v", round, main.writes, ids)
		}
		// Journal: the images in the same order after the one table page,
		// then the table, then the commit's header write.
		var want []PageID
		for i := range ids {
			want = append(want, PageID(i+1))
		}
		want = append(want, 0, 0)
		if !slices.Equal(journalFile.writes, want) {
			t.Fatalf("round %d: journal pages written in order %v, want %v", round, journalFile.writes, want)
		}
	}
}

// Two failed flushes in a row — one dying while before-images are journaled,
// one mid write-back — leave the transaction open and the unwritten frames
// dirty; the third attempt completes the commit, journaling no page twice.
func TestFlushAllDoubleFaultRetry(t *testing.T) {
	mainMem, journalMem := NewMemFile(), NewMemFile()
	main, journalFile := NewFaultFile(mainMem), NewFaultFile(journalMem)
	bp, ids := journaledPool(t, main, journalFile, 6, 8)
	dirtyPages(t, bp, ids, 0xEE)

	journalFile.FailWritesAfter(8) // seven allocations and one image, then the second
	if err := bp.FlushAll(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first FlushAll = %v, want ErrInjected", err)
	}
	journalFile.Heal()
	main.FailWritesAfter(3)
	if err := bp.FlushAll(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second FlushAll = %v, want ErrInjected", err)
	}
	if !bp.Journal().Active() {
		t.Fatal("transaction closed by a failed flush")
	}
	main.Heal()
	if err := bp.FlushAll(); err != nil {
		t.Fatalf("third FlushAll: %v", err)
	}
	if bp.Journal().Active() {
		t.Error("journal active after the completed commit")
	}
	if got, want := journalMem.NumPages(), uint32(1+len(ids)); got != want {
		t.Errorf("journal holds %d pages, want %d (one record per page)", got, want)
	}
	buf := make([]byte, PageSize)
	for i, id := range ids {
		if err := mainMem.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := VerifyPage(id, buf); err != nil {
			t.Errorf("page %d: %v", id, err)
		}
		if buf[PageHeaderSize] != byte(i) || buf[PageHeaderSize+1] != 0xEE {
			t.Errorf("page %d payload = %#x %#x, want %#x 0xee", id, buf[PageHeaderSize], buf[PageHeaderSize+1], i)
		}
	}
}

// One large transaction must not pin the journal's size for good: the commit
// after it cuts the file back to what it used itself. Transactions of a
// steady size never trim (the file stays within twice their size), and a
// power cut on the truncate itself loses nothing — the header is already
// durably inactive.
func TestJournalTrimsAfterLargeTransaction(t *testing.T) {
	workload := func(main, journalFile File, afterSmall func()) error {
		j, err := NewJournal(journalFile, main)
		if err != nil {
			return err
		}
		bp, err := NewJournaledPool(main, j, 32)
		if err != nil {
			return err
		}
		var ids []PageID
		for i := 0; i < 20; i++ {
			p, err := bp.NewPage()
			if err != nil {
				return err
			}
			ids = append(ids, p.ID)
			p.Unpin(true)
		}
		if err := bp.FlushAll(); err != nil {
			return err
		}
		commit := func(ids []PageID, tag byte) error {
			for _, id := range ids {
				p, err := bp.Get(id)
				if err != nil {
					return err
				}
				p.Data[0] = tag
				p.Unpin(true)
			}
			return bp.FlushAll()
		}
		if err := commit(ids, 1); err != nil { // big: 20 before-images
			return err
		}
		if err := commit(ids[:1], 2); err != nil { // small: trims
			return err
		}
		if afterSmall != nil {
			afterSmall()
		}
		return commit(ids[1:2], 3) // same size again: no trim
	}

	clock := NewPowerClock(0)
	mainMem, journalMem := NewMemFile(), NewMemFile()
	main, journalFile := NewFaultFile(mainMem), NewFaultFile(journalMem)
	main.SetPowerClock(clock)
	journalFile.SetPowerClock(clock)
	var trimOrdinal int64
	err := workload(main, journalFile, func() {
		trimOrdinal = clock.Writes() // the truncate is the small commit's last operation
		if got := journalFile.NumPages(); got != 2 {
			t.Errorf("journal holds %d pages after a one-page commit, want 2", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := journalFile.NumPages(); got != 2 {
		t.Errorf("journal holds %d pages after two one-page commits, want 2", got)
	}

	// Cut the power on the truncate.
	clock = NewPowerClock(trimOrdinal)
	mainMem, journalMem = NewMemFile(), NewMemFile()
	main, journalFile = NewFaultFile(mainMem), NewFaultFile(journalMem)
	main.SetPowerClock(clock)
	journalFile.SetPowerClock(clock)
	if err := workload(main, journalFile, nil); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("workload = %v, want ErrPowerCut", err)
	}
	if got := journalMem.NumPages(); got != 21 {
		t.Fatalf("cut journal holds %d pages, want the untrimmed 21: the cut missed the truncate", got)
	}
	j, err := NewJournal(journalMem, mainMem)
	if err != nil || j.RolledBack() {
		t.Fatalf("reopen rolled back %v, %v; the small commit was durable before the trim", j != nil && j.RolledBack(), err)
	}
	buf := make([]byte, PageSize)
	for id, want := range []byte{2, 1, 1} {
		if err := mainMem.ReadPage(PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		if err := VerifyPage(PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		if buf[PageHeaderSize] != want {
			t.Errorf("page %d tagged %d after the cut, want %d", id, buf[PageHeaderSize], want)
		}
	}
}
