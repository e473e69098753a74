package pager

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
)

// Journal is a rollback (before-image) journal giving one page file atomic
// multi-page commits, in the style of SQLite's rollback journal:
//
//  1. Begin: a header naming the transaction sequence number and the page
//     count of the main file at the last commit is written and synced.
//  2. Before a page that existed at the last commit is overwritten in
//     place for the first time, its current on-disk image is appended to
//     the journal and the journal is synced. Pages allocated during the
//     transaction need no before-image: rollback truncates them away.
//  3. Commit: after all in-place writes are synced, the header is marked
//     inactive and synced. That single header write is the commit point.
//
// A crash at any write point therefore leaves either the old state
// recoverable (active journal: Recover restores every before-image and
// truncates the file back to its committed length) or the new state
// already in place (inactive or torn journal: Recover discards it). Torn
// journal writes are caught by per-record checksums; a record is only
// trusted if its header is intact, and the image page is written before
// the record header, so a trusted record always has a complete image.
//
// The journal stores raw physical page images (including their integrity
// headers). Rollback is byte-faithful: a page that was already corrupt
// before the transaction rolls back to the same corrupt bytes, leaving the
// scrubber to re-detect and repair it.
//
// The backing store is a pager File: two pages per record (header, image)
// plus one header page. That reuses the File fault-injection machinery, so
// crash tests can cut power across the main file and the journal with one
// shared clock.
type Journal struct {
	mu      sync.Mutex
	f       File
	seq     uint64
	active  bool
	nextRec PageID // next record header page (records start at page 1)
	orig    uint32 // main-file page count at Begin
	synced  bool   // no appended record is awaiting a sync
	// used is the page count of the last committed transaction (header and
	// records); trim cuts the file back to it.
	used uint32
	// page is where header and record-header pages are built; allocated by
	// the first write (File.WritePage implementations copy) and reused.
	page *[PageSize]byte
}

var (
	journalMagic = []byte("PRIXJNL1")
	recordMagic  = []byte("PJREC001")
)

const journalVersion = 1

// NewJournal opens a journal over f. A pending transaction (valid, active
// header) is left untouched for Recover; the next Begin overwrites it.
func NewJournal(f File) (*Journal, error) {
	j := &Journal{f: f, synced: true}
	hdr, ok, err := j.readHeader()
	if err != nil {
		return nil, err
	}
	if ok {
		j.seq = hdr.seq
		j.active = hdr.active
		j.orig = hdr.orig
	} else {
		// Header invalid or absent: derive the last sequence number from
		// whatever records survive, so a future Begin can never collide
		// with stale records.
		j.seq = j.maxRecordSeq()
	}
	return j, nil
}

// File exposes the journal's backing store (tests and prixcheck).
func (j *Journal) File() File { return j.f }

// Active reports whether a transaction is open (header active on disk).
func (j *Journal) Active() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.active
}

// Close closes the backing store.
func (j *Journal) Close() error { return j.f.Close() }

type journalHeader struct {
	seq    uint64
	orig   uint32
	active bool
}

// header page layout: magic(8) version(1) active(1) pad(2) seq(8) orig(4) crc(4).
const journalHeaderLen = 8 + 1 + 1 + 2 + 8 + 4 + 4

func (j *Journal) writeHeader(h journalHeader) error {
	if err := ensurePages(j.f, 1); err != nil {
		return err
	}
	page := j.scratchPage()
	copy(page[:8], journalMagic)
	page[8] = journalVersion
	if h.active {
		page[9] = 1
	}
	putU64(page[12:20], h.seq)
	putU32(page[20:24], h.orig)
	putU32(page[24:28], crc32.Checksum(page[:24], castagnoli))
	if err := j.f.WritePage(0, page[:]); err != nil {
		return fmt.Errorf("pager: journal header: %w", err)
	}
	return j.f.Sync()
}

// scratchPage returns the journal's zeroed scratch page.
func (j *Journal) scratchPage() *[PageSize]byte {
	if j.page == nil {
		j.page = new([PageSize]byte)
	} else {
		clear(j.page[:])
	}
	return j.page
}

// readHeader returns the header and whether it is valid.
func (j *Journal) readHeader() (journalHeader, bool, error) {
	if j.f.NumPages() == 0 {
		return journalHeader{}, false, nil
	}
	var page [PageSize]byte
	if err := j.f.ReadPage(0, page[:]); err != nil {
		return journalHeader{}, false, fmt.Errorf("pager: journal header: %w", err)
	}
	if !bytes.Equal(page[:8], journalMagic) || page[8] != journalVersion {
		return journalHeader{}, false, nil
	}
	if crc32.Checksum(page[:24], castagnoli) != getU32(page[24:28]) {
		return journalHeader{}, false, nil
	}
	return journalHeader{
		seq:    getU64(page[12:20]),
		orig:   getU32(page[20:24]),
		active: page[9] == 1,
	}, true, nil
}

// maxRecordSeq scans record headers for the largest sequence number.
func (j *Journal) maxRecordSeq() uint64 {
	var max uint64
	var page [PageSize]byte
	for id := PageID(1); uint32(id)+1 < j.f.NumPages(); id += 2 {
		if j.f.ReadPage(id, page[:]) != nil {
			break
		}
		if !bytes.Equal(page[:8], recordMagic) {
			continue
		}
		if crc32.Checksum(page[:24], castagnoli) != getU32(page[24:28]) {
			continue
		}
		if seq := getU64(page[8:16]); seq > max {
			max = seq
		}
	}
	return max
}

// Begin opens a transaction. origPages is the main file's page count at the
// last commit; Recover truncates back to it. Begin overwrites any previous
// (committed or stale) journal content.
func (j *Journal) Begin(origPages uint32) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	if err := j.writeHeader(journalHeader{seq: j.seq, orig: origPages, active: true}); err != nil {
		return err
	}
	j.active = true
	j.orig = origPages
	j.nextRec = 1
	j.synced = true
	return nil
}

// Append records the before-image of page id (a full physical page). The
// record is durable only after Sync.
func (j *Journal) Append(id PageID, image []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.active {
		return fmt.Errorf("pager: journal Append outside a transaction")
	}
	if len(image) != PageSize {
		return fmt.Errorf("pager: journal image of %d bytes", len(image))
	}
	if err := ensurePages(j.f, uint32(j.nextRec)+2); err != nil {
		return err
	}
	// Image first, header second: a record header is only ever on disk
	// with its image complete, so a trusted header implies a usable image.
	if err := j.f.WritePage(j.nextRec+1, image); err != nil {
		return err
	}
	hdr := j.scratchPage()
	copy(hdr[:8], recordMagic)
	putU64(hdr[8:16], j.seq)
	putU32(hdr[16:20], uint32(id))
	putU32(hdr[20:24], crc32.Checksum(image, castagnoli))
	putU32(hdr[24:28], crc32.Checksum(hdr[:24], castagnoli))
	if err := j.f.WritePage(j.nextRec, hdr[:]); err != nil {
		return err
	}
	j.nextRec += 2
	j.synced = false
	return nil
}

// Sync makes every appended record durable. It must complete before the
// corresponding in-place write starts.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.synced {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.synced = true
	return nil
}

// Commit marks the transaction durable by deactivating the header. The
// caller must have synced the main file first.
func (j *Journal) Commit() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.active {
		return nil
	}
	if err := j.writeHeader(journalHeader{seq: j.seq, orig: j.orig, active: false}); err != nil {
		return err
	}
	j.used = uint32(j.nextRec)
	j.active = false
	j.nextRec = 1
	j.synced = true
	return nil
}

// trim cuts the journal back to the pages the last committed transaction
// used when the file is more than twice that, so one large transaction does
// not pin its size for good. Any cut is safe: the header is durably inactive,
// and an inactive journal's records are never read.
func (j *Journal) trim() error {
	j.mu.Lock()
	defer j.mu.Unlock()
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
// NewJournal takes the sequence number from the records, of which none are
// left, so the next Begin starts over at 1 with nothing stale to collide
// with.
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

// Recover rolls an interrupted transaction back on target: every trusted
// before-image (record checksum intact) is restored byte-for-byte, the
// file is truncated to its committed page count, and the journal is
// deactivated. With no pending transaction it does nothing. It returns
// whether a rollback happened.
func (j *Journal) Recover(target File) (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	hdr, ok, err := j.readHeader()
	if err != nil {
		return false, err
	}
	if !ok || !hdr.active {
		// No trusted pending transaction: a torn Begin, a committed
		// journal, or no journal at all. The main file is authoritative.
		return false, nil
	}
	var rec, image [PageSize]byte
	for id := PageID(1); uint32(id)+1 < j.f.NumPages(); id += 2 {
		if err := j.f.ReadPage(id, rec[:]); err != nil {
			return false, fmt.Errorf("pager: journal record %d: %w", id, err)
		}
		if !bytes.Equal(rec[:8], recordMagic) ||
			getU64(rec[8:16]) != hdr.seq ||
			crc32.Checksum(rec[:24], castagnoli) != getU32(rec[24:28]) {
			break // torn or stale record: everything after it is untrusted
		}
		if err := j.f.ReadPage(id+1, image[:]); err != nil {
			return false, fmt.Errorf("pager: journal image %d: %w", id+1, err)
		}
		if crc32.Checksum(image[:], castagnoli) != getU32(rec[20:24]) {
			break
		}
		pid := PageID(getU32(rec[16:20]))
		if uint32(pid) >= hdr.orig {
			continue // page did not exist at the last commit; truncate handles it
		}
		// The record checksum above already proves the image is restored
		// byte-for-byte. No page-level VerifyPage here: a page that was
		// corrupt on disk BEFORE the transaction (e.g. one a repair was
		// rewriting) must roll back to the same corrupt bytes, which the
		// integrity layer above then re-detects.
		if err := target.WritePage(pid, image[:]); err != nil {
			return false, fmt.Errorf("pager: journal rollback of page %d: %w", pid, err)
		}
	}
	if target.NumPages() > hdr.orig {
		if err := target.Truncate(hdr.orig); err != nil {
			return false, fmt.Errorf("pager: journal rollback truncate: %w", err)
		}
	}
	if err := target.Sync(); err != nil {
		return false, err
	}
	// Deactivate: the rollback is durable, the journal is spent.
	if err := j.writeHeader(journalHeader{seq: hdr.seq, orig: hdr.orig, active: false}); err != nil {
		return false, err
	}
	j.seq = hdr.seq
	j.active = false
	j.nextRec = 1
	j.synced = true
	return true, nil
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
