package pager

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
)

// Journal is a rollback (before-image) journal shared by the page files of
// one index, giving all of them one atomic multi-page commit, in the style
// of SQLite's rollback journal:
//
//  1. Log: before any file changes, a segment is written and synced: a
//     header naming the transaction's sequence number and every file's
//     page count at the last commit, a table of packed record headers
//     (file, page id, image checksum), and one page per before-image of a
//     page that existed at the last commit and is about to be overwritten.
//     A commit logs every before-image it needs in one segment; a pool that
//     evicts a dirty page mid-transaction logs a further segment first.
//  2. Write-back: every file's dirty pages are written in place — files
//     grow here, never before the journal is active — and each written file
//     is synced.
//  3. Commit: the header is rewritten inactive and synced. That single
//     header write is the commit point.
//
// A commit thus syncs at most one more time than it has dirty files: three
// syncs for one file, four for two. A crash at any write point leaves either
// the old state recoverable (active journal: recovery restores every
// before-image and truncates each file back to its committed length) or the
// new state in place (inactive or torn header: the journal is ignored). A
// segment is trusted only if its table's checksum holds and each image only
// if its own does; recovery stops at the first one that does not, which can
// only be a segment whose sync never completed, so nothing after it was
// written in place.
//
// The journal stores raw physical page images (including their integrity
// headers). Rollback is byte-faithful: a page that was already corrupt
// before the transaction rolls back to the same corrupt bytes, leaving the
// scrubber to re-detect and repair it.
//
// The backing store is a pager File, so crash tests cut power across the
// page files and the journal with one shared clock.
type Journal struct {
	mu sync.Mutex
	f  File
	// files are the page files by slot, in NewJournal's order; pools are
	// the pools attached to them (nil before NewJournaledPool and after
	// Close).
	files []File
	pools []*BufferPool
	seq   uint64
	// active is set once the open transaction's first segment is durable.
	active bool
	// orig is each file's page count at the last commit; recovery truncates
	// back to it.
	orig []uint32
	// next is where the open transaction's next segment starts.
	next PageID
	// used is the page count of the last committed transaction; trim cuts
	// the file back to it.
	used uint32
	// rolledBack reports that opening the journal rolled a transaction back.
	rolledBack bool
	// failed is the error of a commit a closing pool gave up on: the
	// transaction is left to recovery, and no later commit may complete it
	// without that pool's pages.
	failed error
	// page and image are where table pages are built and before-images
	// read; refs and entries are a commit's record list. All are reused, so
	// a commit allocates nothing in steady state.
	page, image *[PageSize]byte
	refs        []pageRef
	entries     []byte
}

// pageRef names one page of one of the journal's files.
type pageRef struct {
	slot int
	id   PageID
}

var (
	journalMagic = []byte("PRIXJNL2")
	// legacyJournalMagic is the header of the one-journal-per-file format
	// this one replaced.
	legacyJournalMagic = []byte("PRIXJNL1")
)

// Segment table layout. The first table page holds the header — magic(8)
// active(1) files(1) pad(2) seq(8) records(4) pad(4) — then each file's
// committed page count (4 bytes each), then the packed record headers —
// file(4) page(4) image CRC(4) — and ends in a CRC-32C over the whole table
// (every table page, this field zeroed). Record headers that do not fit spill
// to further table pages, which hold nothing else. The images follow the
// table, one page each, in record order.
const (
	segHeaderLen   = 28
	recordEntryLen = 12
	tableCRCAt     = PageSize - 4
	maxJournalFile = 255
)

// tablePages returns how many pages a segment's table of n records over
// nfiles files takes.
func tablePages(n, nfiles int) int {
	first := (tableCRCAt - segHeaderLen - 4*nfiles) / recordEntryLen
	if n <= first {
		return 1
	}
	per := PageSize / recordEntryLen
	return 1 + (n-first+per-1)/per
}

// NewJournal opens the journal f shared by files (their slot is their
// position) and rolls back any transaction a crash left pending on them:
// every trusted before-image is restored byte-for-byte, each file is
// truncated to its committed page count and synced, and the journal is
// deactivated.
func NewJournal(f File, files ...File) (*Journal, error) {
	if len(files) > maxJournalFile {
		return nil, fmt.Errorf("pager: journal over %d files", len(files))
	}
	j := &Journal{f: f, files: files, pools: make([]*BufferPool, len(files))}
	hdr, ok, err := j.readSegment(0)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Header invalid or absent: take the last sequence number from
		// whatever segments survive, so this journal's segments can never
		// be confused with stale ones.
		j.seq = j.maxSegmentSeq()
	} else {
		j.seq = hdr.seq
		if hdr.active {
			if err := j.rollBack(hdr); err != nil {
				return nil, err
			}
			j.rolledBack = true
		}
	}
	j.orig = make([]uint32, len(files))
	for i, pf := range files {
		j.orig[i] = pf.NumPages()
	}
	return j, nil
}

// LegacyJournalActive reports whether page 0 of a journal in the replaced
// one-journal-per-file format holds a valid, active header: magic(8)
// version(1) active(1) pad(2) seq(8) orig(4) crc(4).
func LegacyJournalActive(page []byte) bool {
	return len(page) >= 28 && bytes.Equal(page[:8], legacyJournalMagic) && page[8] == 1 &&
		crc32.Checksum(page[:24], castagnoli) == getU32(page[24:28]) && page[9] == 1
}

// RolledBack reports whether NewJournal rolled back a pending transaction.
func (j *Journal) RolledBack() bool { return j.rolledBack }

// Close closes the backing store.
func (j *Journal) Close() error { return j.f.Close() }

// scratch returns the journal's zeroed table page.
func (j *Journal) scratch() *[PageSize]byte {
	if j.page == nil {
		j.page = new([PageSize]byte)
	} else {
		clear(j.page[:])
	}
	return j.page
}

type segmentHeader struct {
	seq     uint64
	active  bool
	orig    []uint32
	entries []byte // records × recordEntryLen
	pages   int    // table pages
}

// readSegment reads and checks the segment table at pos; ok is false when
// it is absent, torn or not a segment.
func (j *Journal) readSegment(pos PageID) (segmentHeader, bool, error) {
	if uint32(pos) >= j.f.NumPages() {
		return segmentHeader{}, false, nil
	}
	var first [PageSize]byte
	if err := j.f.ReadPage(pos, first[:]); err != nil {
		return segmentHeader{}, false, fmt.Errorf("pager: journal page %d: %w", pos, err)
	}
	if !bytes.Equal(first[:8], journalMagic) {
		return segmentHeader{}, false, nil
	}
	nfiles := int(first[9])
	n := int(getU32(first[20:24]))
	if n < 0 || n > 1<<24 {
		return segmentHeader{}, false, nil
	}
	tp := tablePages(n, nfiles)
	if uint32(pos)+uint32(tp) > j.f.NumPages() {
		return segmentHeader{}, false, nil
	}
	want := getU32(first[tableCRCAt:])
	putU32(first[tableCRCAt:], 0)
	crc := crc32.Checksum(first[:], castagnoli)
	table := append([]byte(nil), first[segHeaderLen+4*nfiles:tableCRCAt]...)
	var spill [PageSize]byte
	for i := 1; i < tp; i++ {
		if err := j.f.ReadPage(pos+PageID(i), spill[:]); err != nil {
			return segmentHeader{}, false, fmt.Errorf("pager: journal page %d: %w", int(pos)+i, err)
		}
		crc = crc32.Update(crc, castagnoli, spill[:])
		table = append(table, spill[:PageSize/recordEntryLen*recordEntryLen]...)
	}
	if crc != want {
		return segmentHeader{}, false, nil
	}
	h := segmentHeader{seq: getU64(first[12:20]), active: first[8] == 1, pages: tp,
		entries: table[:n*recordEntryLen]}
	for i := 0; i < nfiles; i++ {
		h.orig = append(h.orig, getU32(first[segHeaderLen+4*i:]))
	}
	return h, true, nil
}

// maxSegmentSeq scans the journal for the largest sequence number of any
// trusted segment table.
func (j *Journal) maxSegmentSeq() uint64 {
	var max uint64
	for id := PageID(0); uint32(id) < j.f.NumPages(); id++ {
		if h, ok, err := j.readSegment(id); err == nil && ok && h.seq > max {
			max = h.seq
		}
	}
	return max
}

// rollBack restores a pending transaction's trusted before-images, cuts
// each file back to its committed length, syncs the files and deactivates
// the journal.
func (j *Journal) rollBack(hdr segmentHeader) error {
	if len(hdr.orig) > len(j.files) {
		return fmt.Errorf("pager: journal spans %d files, %d given", len(hdr.orig), len(j.files))
	}
	var image [PageSize]byte
	pos := PageID(0)
	seg := hdr
	for {
		trusted := true
		for i := 0; trusted && i < len(seg.entries)/recordEntryLen; i++ {
			e := seg.entries[i*recordEntryLen:]
			slot, pid := int(getU32(e[:4])), PageID(getU32(e[4:8]))
			at := pos + PageID(seg.pages+i)
			if uint32(at) >= j.f.NumPages() {
				trusted = false // the image never reached the file
				break
			}
			if err := j.f.ReadPage(at, image[:]); err != nil {
				return fmt.Errorf("pager: journal image %d: %w", at, err)
			}
			if slot >= len(hdr.orig) || crc32.Checksum(image[:], castagnoli) != getU32(e[8:12]) {
				trusted = false // torn: nothing after it was written in place
				break
			}
			if uint32(pid) >= hdr.orig[slot] {
				continue // page did not exist at the last commit; truncate handles it
			}
			// The record checksum above already proves the image is restored
			// byte-for-byte. No page-level VerifyPage here: a page that was
			// corrupt on disk BEFORE the transaction (e.g. one a repair was
			// rewriting) must roll back to the same corrupt bytes, which the
			// integrity layer above then re-detects.
			if err := j.files[slot].WritePage(pid, image[:]); err != nil {
				return fmt.Errorf("pager: journal rollback of page %d: %w", pid, err)
			}
		}
		if !trusted {
			break
		}
		pos += PageID(seg.pages + len(seg.entries)/recordEntryLen)
		next, ok, err := j.readSegment(pos)
		if err != nil {
			return err
		}
		if !ok || next.seq != hdr.seq || !next.active {
			break
		}
		seg = next
	}
	for slot, orig := range hdr.orig {
		f := j.files[slot]
		if f.NumPages() > orig {
			if err := f.Truncate(orig); err != nil {
				return fmt.Errorf("pager: journal rollback truncate: %w", err)
			}
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	// Deactivate: the rollback is durable, the journal is spent.
	j.orig = hdr.orig
	return j.deactivateLocked()
}

// writeTable writes a segment table of j.entries at pos, marked active or
// not.
func (j *Journal) writeTable(pos PageID, active bool) error {
	n := len(j.entries) / recordEntryLen
	tp := tablePages(n, len(j.orig))
	first := j.scratch()
	copy(first[:8], journalMagic)
	if active {
		first[8] = 1
	}
	first[9] = byte(len(j.orig))
	putU64(first[12:20], j.seq)
	putU32(first[20:24], uint32(n))
	at := segHeaderLen
	for _, o := range j.orig {
		putU32(first[at:], o)
		at += 4
	}
	rest := j.entries[copy(first[at:tableCRCAt], j.entries):]
	crc := crc32.Checksum(first[:], castagnoli)
	if tp > 1 {
		// Spill pages are built in the image buffer, after the images.
		spill := j.imageBuf()
		for i := 1; i < tp; i++ {
			clear(spill[:])
			rest = rest[copy(spill[:PageSize/recordEntryLen*recordEntryLen], rest):]
			crc = crc32.Update(crc, castagnoli, spill[:])
			if err := j.f.WritePage(pos+PageID(i), spill[:]); err != nil {
				return err
			}
		}
	}
	putU32(first[tableCRCAt:], crc)
	return j.f.WritePage(pos, first[:])
}

func (j *Journal) imageBuf() *[PageSize]byte {
	if j.image == nil {
		j.image = new([PageSize]byte)
	}
	return j.image
}

// logLocked makes the current on-disk images of refs durable in one
// segment, opening the transaction when none is: the first segment lands
// at page 0 and carries the active header, so it is logged — even with no
// records — before any file may change. One sync.
func (j *Journal) logLocked(refs []pageRef) error {
	if j.active && len(refs) == 0 {
		return nil
	}
	pos := j.next
	if !j.active {
		j.seq++
		pos = 0
	}
	n := len(refs)
	tp := tablePages(n, len(j.orig))
	if err := ensurePages(j.f, uint32(pos)+uint32(tp+n)); err != nil {
		return err
	}
	image := j.imageBuf()
	j.entries = j.entries[:0]
	for i, r := range refs {
		if err := j.files[r.slot].ReadPage(r.id, image[:]); err != nil {
			return err
		}
		if err := j.f.WritePage(pos+PageID(tp+i), image[:]); err != nil {
			return err
		}
		var e [recordEntryLen]byte
		putU32(e[:4], uint32(r.slot))
		putU32(e[4:8], uint32(r.id))
		putU32(e[8:12], crc32.Checksum(image[:], castagnoli))
		j.entries = append(j.entries, e[:]...)
	}
	if err := j.writeTable(pos, true); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.active = true
	j.next = pos + PageID(tp+n)
	return nil
}

// deactivateLocked writes the inactive header and syncs it: the commit
// point.
func (j *Journal) deactivateLocked() error {
	if err := ensurePages(j.f, 1); err != nil {
		return err
	}
	j.entries = j.entries[:0]
	if err := j.writeTable(0, false); err != nil {
		return fmt.Errorf("pager: journal header: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.used = uint32(j.next)
	j.active = false
	j.next = 0
	return nil
}

// commit is FlushAll for every pool attached to the journal: one
// transaction over all of them. It locks the pools in slot order, then the
// journal; an evicting pool takes its own lock and then the journal's, so
// the two never wait on each other.
func (j *Journal) commit() error {
	var pools [maxJournalFile]*BufferPool
	n := 0
	j.mu.Lock()
	for _, bp := range j.pools {
		if bp != nil {
			pools[n] = bp
			n++
		}
	}
	j.mu.Unlock()
	for _, bp := range pools[:n] {
		bp.mu.Lock()
	}
	defer func() {
		for _, bp := range pools[:n] {
			bp.mu.Unlock()
		}
	}()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return fmt.Errorf("pager: journal commit after a failed close: %w", j.failed)
	}
	// Journal every needed before-image up front, so one sync covers all
	// of them.
	j.refs = j.refs[:0]
	dirty := false
	for _, bp := range pools[:n] {
		bp.collectDirtyLocked()
		dirty = dirty || len(bp.flushing) > 0 || bp.written
		for _, fr := range bp.flushing {
			if bp.needsImageLocked(fr.id) {
				j.refs = append(j.refs, pageRef{bp.slot, fr.id})
			}
		}
	}
	if !dirty && !j.active {
		return nil
	}
	if err := j.logLocked(j.refs); err != nil {
		return err
	}
	for _, r := range j.refs {
		j.pools[r.slot].journaled[r.id] = true
	}
	for _, bp := range pools[:n] {
		if err := bp.writeBackLocked(); err != nil {
			return err
		}
	}
	if err := j.deactivateLocked(); err != nil {
		return err
	}
	for _, bp := range pools[:n] {
		bp.committedPages = bp.file.NumPages()
		j.orig[bp.slot] = bp.committedPages
		clear(bp.journaled)
	}
	// The commit is durable; a failed trim only leaves the journal long.
	return j.trimLocked()
}

// logForWrite readies an in-place write of bp's page id outside a commit
// (an eviction): the transaction must be active before the
// file changes at all, and a page that existed at the last commit needs its
// before-image durable first. The pool logs every dirty page it would need
// an image of at once, so its later evictions find theirs logged.
func (j *Journal) logForWrite(bp *BufferPool, id PageID) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.active && !bp.needsImageLocked(id) {
		return nil
	}
	j.refs = j.refs[:0]
	if bp.needsImageLocked(id) {
		for _, fr := range bp.frames {
			if fr.dirty && bp.needsImageLocked(fr.id) {
				j.refs = append(j.refs, pageRef{bp.slot, fr.id})
			}
		}
		slices.SortFunc(j.refs, func(a, b pageRef) int { return cmp.Compare(a.id, b.id) })
	}
	if err := j.logLocked(j.refs); err != nil {
		return err
	}
	for _, r := range j.refs {
		bp.journaled[r.id] = true
	}
	return nil
}

// attach binds a pool to its file's slot.
func (j *Journal) attach(bp *BufferPool) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for slot, f := range j.files {
		if f == bp.file {
			if j.pools[slot] != nil {
				return 0, fmt.Errorf("pager: journal slot %d attached twice", slot)
			}
			j.pools[slot] = bp
			return slot, nil
		}
	}
	return 0, fmt.Errorf("pager: file is not one of the journal's")
}

// detach unbinds a closed pool whose last commit ended in flushErr. The last
// one to leave truncates an inactive journal to zero pages — it holds
// nothing the next open needs, so a closed index keeps no journal bytes —
// and closes it.
func (j *Journal) detach(bp *BufferPool, flushErr error) error {
	j.mu.Lock()
	j.pools[bp.slot] = nil
	if flushErr != nil && j.failed == nil {
		j.failed = flushErr
	}
	last := true
	for _, p := range j.pools {
		last = last && p == nil
	}
	j.mu.Unlock()
	if !last {
		return nil
	}
	var err error
	if j.failed == nil {
		err = j.release()
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

// trimLocked cuts the journal back to the pages the last committed
// transaction used when the file is more than twice that, so one large
// transaction does not pin its size for good. Any cut is safe: the header is
// durably inactive, and an inactive journal's records are never read.
func (j *Journal) trimLocked() error {
	if j.active || j.used == 0 || j.f.NumPages() <= 2*j.used {
		return nil
	}
	if err := j.f.Truncate(j.used); err != nil {
		return fmt.Errorf("pager: journal trim: %w", err)
	}
	return nil
}

// release truncates an inactive journal to zero pages. Like trim, any cut is
// safe once the header is durably inactive; and with the header gone,
// NewJournal takes the sequence number from the segments, of which none are
// left, so the next transaction starts over at 1 with nothing stale to
// collide with.
func (j *Journal) release() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.active || j.f.NumPages() == 0 {
		return nil
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("pager: journal release: %w", err)
	}
	j.used = 0
	return nil
}

// ensurePages extends f to at least n pages.
func ensurePages(f File, n uint32) error {
	for f.NumPages() < n {
		if _, err := f.Allocate(); err != nil {
			return err
		}
	}
	return nil
}

func putU64(b []byte, v uint64) {
	putU32(b[:4], uint32(v))
	putU32(b[4:8], uint32(v>>32))
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b[:4])) | uint64(getU32(b[4:8]))<<32
}
