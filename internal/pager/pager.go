// Package pager provides the paged storage layer every index in the repo is
// built on: fixed-size 8 KiB pages, file- or memory-backed, fronted by an
// LRU buffer pool that counts logical and physical page reads. The physical
// read counter is the "Disk IO (pages)" metric reported in the paper's
// Tables 4-9; the paper obtained it via Solaris direct I/O with a fixed
// 2000-page pool, which the pool reproduces by bounding its capacity and
// starting queries cold.
package pager

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the size of every page in bytes, matching the paper's setup.
const PageSize = 8192

// PageID identifies a page within one File. The first page of a file is 0.
type PageID uint32

// InvalidPage is a sentinel PageID that never identifies a real page.
const InvalidPage = PageID(^uint32(0))

// DefaultPoolPages is the paper's buffer pool size (2000 pages of 8 KiB).
const DefaultPoolPages = 2000

// File is the raw page I/O interface beneath a BufferPool. It traffics in
// physical pages (PageSize bytes, integrity header included); the pool is
// what seals and verifies them.
type File interface {
	// ReadPage fills buf (len PageSize) with the page's content.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as the page's content.
	WritePage(id PageID, buf []byte) error
	// Allocate extends the file by one zeroed page and returns its id.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() uint32
	// Truncate discards every page at or beyond n (crash recovery rolls
	// back pages allocated by an interrupted transaction with it).
	Truncate(n uint32) error
	// Sync flushes the backing store.
	Sync() error
	// Close releases resources; the file must not be used afterwards.
	Close() error
}

// MemFile is an in-memory File used by tests and by benchmark runs that
// want deterministic page-count accounting without filesystem noise.
type MemFile struct {
	mu    sync.Mutex
	pages [][]byte
}

// NewMemFile returns an empty in-memory page file.
func NewMemFile() *MemFile { return &MemFile{} }

// ReadPage implements File.
func (f *MemFile) ReadPage(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(id) >= len(f.pages) {
		return fmt.Errorf("pager: read of unallocated page %d (have %d)", id, len(f.pages))
	}
	copy(buf, f.pages[id])
	return nil
}

// WritePage implements File.
func (f *MemFile) WritePage(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(id) >= len(f.pages) {
		return fmt.Errorf("pager: write of unallocated page %d (have %d)", id, len(f.pages))
	}
	copy(f.pages[id], buf)
	return nil
}

// Allocate implements File.
func (f *MemFile) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.pages) >= int(InvalidPage) {
		return InvalidPage, fmt.Errorf("pager: file full")
	}
	f.pages = append(f.pages, make([]byte, PageSize))
	return PageID(len(f.pages) - 1), nil
}

// NumPages implements File.
func (f *MemFile) NumPages() uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return uint32(len(f.pages))
}

// Truncate implements File.
func (f *MemFile) Truncate(n uint32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(n) > len(f.pages) {
		return fmt.Errorf("pager: truncate to %d pages, have %d", n, len(f.pages))
	}
	f.pages = f.pages[:n]
	return nil
}

// Sync implements File.
func (f *MemFile) Sync() error { return nil }

// Close implements File.
func (f *MemFile) Close() error { return nil }

// OSFile is a File backed by an operating-system file.
type OSFile struct {
	mu   sync.Mutex
	f    *os.File
	next uint32
}

// OpenOSFile opens (creating if needed) a page file at path. A file whose
// size is not a multiple of the page size is rejected.
func OpenOSFile(path string) (*OSFile, error) {
	return openOSFile(path, false)
}

// OpenOSFilePadded is OpenOSFile for files that may end in a torn page
// after a crash: instead of rejecting a partial trailing page it pads the
// file with zeroes up to the next page boundary. The torn page then fails
// its checksum (or is rolled back by the journal) instead of making the
// whole file unopenable.
func OpenOSFilePadded(path string) (*OSFile, error) {
	return openOSFile(path, true)
}

func openOSFile(path string, pad bool) (*OSFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: stat %s: %w", path, err)
	}
	size := st.Size()
	if size%PageSize != 0 {
		if !pad {
			f.Close()
			return nil, fmt.Errorf("pager: %s size %d not a multiple of page size", path, size)
		}
		size = (size/PageSize + 1) * PageSize
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("pager: pad %s: %w", path, err)
		}
	}
	return &OSFile{f: f, next: uint32(size / PageSize)}, nil
}

// ReadPage implements File.
func (f *OSFile) ReadPage(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if uint32(id) >= f.next {
		return fmt.Errorf("pager: read of unallocated page %d (have %d)", id, f.next)
	}
	// A page that vanished under the open file (the file was truncated behind
	// its back) must not read as zeroes: an all-zero page verifies as
	// "allocated, never written", so a short read would pass as an empty page.
	n, err := f.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	if n == PageSize {
		return nil
	}
	if err != nil && err != io.EOF {
		return fmt.Errorf("pager: read page %d: %w", id, err)
	}
	return fmt.Errorf("pager: read page %d: short read (%d of %d bytes)", id, n, PageSize)
}

// WritePage implements File.
func (f *OSFile) WritePage(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if uint32(id) >= f.next {
		return fmt.Errorf("pager: write of unallocated page %d (have %d)", id, f.next)
	}
	if _, err := f.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	return nil
}

// Allocate implements File.
func (f *OSFile) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := PageID(f.next)
	var zero [PageSize]byte
	if _, err := f.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return InvalidPage, fmt.Errorf("pager: allocate page %d: %w", id, err)
	}
	f.next++
	return id, nil
}

// NumPages implements File.
func (f *OSFile) NumPages() uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Truncate implements File.
func (f *OSFile) Truncate(n uint32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n > f.next {
		return fmt.Errorf("pager: truncate to %d pages, have %d", n, f.next)
	}
	if err := f.f.Truncate(int64(n) * PageSize); err != nil {
		return fmt.Errorf("pager: truncate: %w", err)
	}
	f.next = n
	return nil
}

// Sync implements File.
func (f *OSFile) Sync() error { return f.f.Sync() }

// Close implements File.
func (f *OSFile) Close() error { return f.f.Close() }

// Stats holds a snapshot of the buffer pool's I/O counters. PhysicalReads
// is the number the paper reports as "Disk IO (pages read from disk)".
type Stats struct {
	LogicalReads  uint64 // Get and GetNoFill calls
	PhysicalReads uint64 // Get and GetNoFill calls that missed the pool
	NoFillReads   uint64 // GetNoFill misses: physical reads that left no frame behind
	Writes        uint64 // pages written back to the file
	Evictions     uint64 // frames evicted to make room
	Allocations   uint64 // NewPage calls
	Corruptions   uint64 // physical reads that failed integrity checks
	Resident      uint64 // frames holding a page now (a gauge, not a counter)
}

// counters is the live, lock-free counterpart of Stats. The serving layer
// samples PagesRead on every request while queries run on other goroutines,
// so reads must not contend on (or wait for) the pool mutex.
type counters struct {
	logicalReads  atomic.Uint64
	physicalReads atomic.Uint64
	noFillReads   atomic.Uint64
	writes        atomic.Uint64
	evictions     atomic.Uint64
	allocations   atomic.Uint64
	corruptions   atomic.Uint64
	// resident mirrors len(frames); it is written under the pool mutex and
	// read without it.
	resident atomic.Int64
}

func (c *counters) snapshot() Stats {
	// A read bumps logical, then physical, then no-fill; loading them in the
	// reverse order keeps NoFillReads ≤ PhysicalReads ≤ LogicalReads in every
	// snapshot taken while reads run, so Hits never wraps.
	noFill := c.noFillReads.Load()
	physical := c.physicalReads.Load()
	return Stats{
		LogicalReads:  c.logicalReads.Load(),
		PhysicalReads: physical,
		NoFillReads:   noFill,
		Writes:        c.writes.Load(),
		Evictions:     c.evictions.Load(),
		Allocations:   c.allocations.Load(),
		Corruptions:   c.corruptions.Load(),
		Resident:      uint64(c.resident.Load()),
	}
}

func (c *counters) reset() {
	c.logicalReads.Store(0)
	c.physicalReads.Store(0)
	c.noFillReads.Store(0)
	c.writes.Store(0)
	c.evictions.Store(0)
	c.allocations.Store(0)
	// corruptions is intentionally not reset: it counts permanent damage
	// observed over the pool's lifetime, not per-query work. resident is a
	// gauge of the pool's contents, not of work done.
}

// Page is a pinned buffer-pool frame. Data aliases the frame's buffer, so
// it is valid only until Unpin; mutate it only if you pass dirty=true.
// Data is the page's payload (PageDataSize bytes): the physical integrity
// header is the pool's business and never visible to callers. Get and
// NewPage return the handle by value so a pin costs no heap object; keep it
// in one variable, because Unpin's double-release check lives in the handle.
type Page struct {
	ID   PageID
	Data []byte
	fr   *frame
	bp   *BufferPool
}

// Unpin releases the page back to the pool. dirty marks the frame for
// write-back before eviction. Unpin panics if called twice on one Page.
func (p *Page) Unpin(dirty bool) {
	if p.fr == nil {
		panic("pager: double Unpin")
	}
	p.bp.unpin(p.fr, dirty)
	p.fr = nil
	p.Data = nil
}

// frame is a small header over its page bytes. The bytes are a separate
// exactly-PageSize allocation: that is the 8,192-byte size class and holds no
// pointers, so the collector never scans it, where an inline array plus the
// header would round up to the 9,472-byte class. A frame keeps its bytes
// across reuse from the free list.
type frame struct {
	id    PageID
	data  *[PageSize]byte
	pins  int
	dirty bool
	// prev and next link the frame into the pool's LRU list while it is
	// unpinned (queued); next alone chains the free list.
	prev, next *frame
	queued     bool
	// loading is set while the frame's content is being read from the file
	// (outside the pool mutex), and loaded is held at one for that long.
	// Concurrent Gets for the page pin the frame and wait on loaded instead
	// of issuing a second physical read. A loading frame is always pinned,
	// so it can never be an eviction victim and is never dirty; and because
	// every waiter holds a pin until its Wait has returned, the frame — and
	// with it the WaitGroup — is not reused for another page before then.
	loading bool
	loaded  sync.WaitGroup
	// loadErr records a failed load for the waiters; the loader removes the
	// frame from the pool before releasing loaded.
	loadErr error
	// transient marks a GetNoFill miss buffer: never in frames, read-only,
	// and returned to the pool's transient list on Unpin.
	transient bool
}

// transientFrames bounds the spare no-fill read buffers a pool keeps. A tree
// scan or record read pins one page at a time, so a few cover concurrent
// builds; a miss beyond them allocates a buffer the garbage collector takes
// back after Unpin.
const transientFrames = 4

// BufferPool caches up to capacity pages of one File with LRU replacement.
// All methods are safe for concurrent use.
//
// Every physical read is checksum-verified (a mismatch returns a typed
// *CorruptPageError) and every write-back is sealed with a fresh header.
// NewPage only numbers a page: the file grows when the page is first written
// back. With a journal attached (NewJournaledPool), write-backs follow the
// atomic-commit protocol: before-images are journaled and synced before a
// committed page is overwritten in place, and FlushAll is the commit point
// of every pool sharing the journal.
type BufferPool struct {
	mu       sync.Mutex
	file     File
	capacity int
	frames   map[PageID]*frame
	// mru and lru are the ends of the intrusive list of unpinned frames:
	// unpin pushes at mru, eviction takes lru — exact LRU, so which pages a
	// query finds resident (and its physical read count) is deterministic.
	mru, lru *frame
	// free chains frames whose page was evicted or dropped; the next miss
	// reuses one instead of allocating 8 KiB.
	free  *frame
	stats counters
	// transient chains up to transientFrames spare buffers for GetNoFill
	// misses, so a steady-state no-fill read allocates nothing.
	transient  *frame
	nTransient int

	// readDelay (nanoseconds) is an injected per-physical-read latency,
	// simulating the seek-dominated device of the paper's 2004 evaluation.
	// Benchmarks use it to make cold-start queries I/O-bound; production
	// code leaves it at zero. It applies outside the pool mutex, so delayed
	// reads from different workers overlap instead of serializing.
	readDelay atomic.Int64

	// pages is the page count including pages NewPage numbered that were
	// not written back yet; the file holds the first file.NumPages() of them.
	pages uint32
	// written records that the pool wrote to its file since its last sync.
	written bool

	journal *Journal
	slot    int // the file's slot in the journal
	// committedPages is the file's page count at the last commit; pages at
	// or beyond it were allocated by the open transaction and need no
	// before-image (rollback truncates them).
	committedPages uint32
	// journaled tracks pages whose before-image is already in the journal
	// for the open transaction.
	journaled map[PageID]bool
	// flushing is the dirty frames of the flush in progress, reused so a
	// commit allocates nothing in steady state.
	flushing []*frame
}

// NewBufferPool wraps file with a pool of the given capacity (in pages).
// A capacity below 1 panics: the pool could not pin a single page.
func NewBufferPool(file File, capacity int) *BufferPool {
	if capacity < 1 {
		panic("pager: buffer pool capacity must be at least 1")
	}
	return &BufferPool{
		file:     file,
		capacity: capacity,
		// Unsized: the map grows with residency, not with the capacity.
		frames: make(map[PageID]*frame),
		pages:  file.NumPages(),
	}
}

// NewJournaledPool returns a pool over one of the journal's files (which
// NewJournal has already rolled back) whose write-backs go through the
// atomic-commit protocol.
func NewJournaledPool(file File, journal *Journal, capacity int) (*BufferPool, error) {
	bp := NewBufferPool(file, capacity)
	slot, err := journal.attach(bp)
	if err != nil {
		return nil, err
	}
	bp.journal, bp.slot = journal, slot
	bp.committedPages = file.NumPages()
	bp.journaled = make(map[PageID]bool)
	return bp, nil
}

// File exposes the underlying page file.
func (bp *BufferPool) File() File { return bp.file }

// NumPages returns the page count, pages NewPage numbered and not yet
// written back included.
func (bp *BufferPool) NumPages() uint32 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.pages
}

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Stats returns a snapshot of the I/O counters. It never touches the pool
// mutex, so it is safe (and cheap) to call concurrently with queries.
func (bp *BufferPool) Stats() Stats { return bp.stats.snapshot() }

// ResetStats zeroes the I/O counters (e.g. between benchmark queries).
func (bp *BufferPool) ResetStats() { bp.stats.reset() }

// ReadCounts returns the live (physical, logical) read counters as two
// atomic loads, without building a full Stats snapshot. The query tracer
// samples this on every span boundary, so it must stay this cheap.
func (bp *BufferPool) ReadCounts() (physical, logical uint64) {
	return bp.stats.physicalReads.Load(), bp.stats.logicalReads.Load()
}

// SetReadDelay injects a fixed latency before every physical page read,
// simulating the paper's 2004-era seek-dominated device for benchmarks.
// Zero (the default) disables it. The delay is slept outside the pool
// mutex, so concurrent misses overlap their waits like real device queues.
func (bp *BufferPool) SetReadDelay(d time.Duration) { bp.readDelay.Store(int64(d)) }

// Contains reports whether the page is resident (a frame still loading
// counts: a Get would wait for the load, not the device). Readahead uses
// it to skip pages that need no warming; the answer can go stale the
// moment the lock drops, which only costs the caller a cheap duplicate
// Get.
func (bp *BufferPool) Contains(id PageID) bool {
	bp.mu.Lock()
	_, ok := bp.frames[id]
	bp.mu.Unlock()
	return ok
}

// Get pins the page with the given id, reading it from the file on a miss.
// The physical read is integrity-checked: corrupt pages return a typed
// *CorruptPageError and are never cached.
//
// Misses read the file outside the pool mutex: the frame is published in a
// loading state and concurrent Gets for the same page wait on it (one
// physical read, counted once) while Gets for other pages proceed — page
// waits from different workers overlap instead of serializing behind one
// lock.
func (bp *BufferPool) Get(id PageID) (Page, error) {
	bp.mu.Lock()
	bp.stats.logicalReads.Add(1)
	if fr, ok := bp.frames[id]; ok {
		bp.pinLocked(fr)
		loading := fr.loading
		bp.mu.Unlock()
		if loading {
			return bp.awaitLoad(fr)
		}
		return bp.page(fr), nil
	}
	bp.stats.physicalReads.Add(1)
	fr, err := bp.newFrameLocked(id, false)
	if err != nil {
		bp.mu.Unlock()
		return Page{}, err
	}
	fr.loading = true
	fr.loaded.Add(1)
	bp.mu.Unlock()

	err = bp.readFrame(id, fr)

	bp.mu.Lock()
	if err != nil {
		fr.loadErr = err
		delete(bp.frames, id)
		bp.stats.resident.Add(-1)
	}
	fr.loading = false
	fr.loaded.Done()
	bp.mu.Unlock()
	if err != nil {
		return Page{}, err
	}
	return bp.page(fr), nil
}

// GetNoFill is Get for a page read only to build something else from it (the
// hot tier's lists and summaries): a resident frame — clean, dirty or still
// loading — is pinned and returned exactly as Get returns it, but a miss reads
// the page into a transient buffer that is never entered into the pool, so
// the read displaces no resident page and leaves no frame behind. The miss
// keeps every check Get makes: the read delay, the integrity check (a corrupt
// page is a *CorruptPageError and counts in Corruptions) and the logical and
// physical read counters. The returned page is read-only: Unpin(true) panics.
//
// A miss needs no coherence protocol with Get: a page is written only while a
// frame holds it, and a dirty frame leaves the pool only after its write-back,
// so a page with no frame has its latest image in the file. A miss racing a
// writer of the same page reads the image from before or after the write, as
// a Get racing it would; callers order builds against writers themselves.
func (bp *BufferPool) GetNoFill(id PageID) (Page, error) {
	bp.mu.Lock()
	bp.stats.logicalReads.Add(1)
	if fr, ok := bp.frames[id]; ok {
		bp.pinLocked(fr)
		loading := fr.loading
		bp.mu.Unlock()
		if loading {
			return bp.awaitLoad(fr)
		}
		return bp.page(fr), nil
	}
	bp.stats.physicalReads.Add(1)
	bp.stats.noFillReads.Add(1)
	fr := bp.transient
	if fr != nil {
		bp.transient, fr.next = fr.next, nil
		bp.nTransient--
	}
	bp.mu.Unlock()
	if fr == nil {
		fr = &frame{transient: true, data: new([PageSize]byte)}
	}
	fr.id, fr.pins = id, 1
	if err := bp.readFrame(id, fr); err != nil {
		bp.mu.Lock()
		bp.releaseTransientLocked(fr)
		bp.mu.Unlock()
		return Page{}, err
	}
	return bp.page(fr), nil
}

// awaitLoad waits for the load of a frame the caller found loading and pinned.
func (bp *BufferPool) awaitLoad(fr *frame) (Page, error) {
	fr.loaded.Wait()
	// Done happens after the loader's writes, so reading loadErr (and, on
	// success, the frame data) is ordered.
	if fr.loadErr != nil {
		// The loader already removed the failed frame from the pool; the pin
		// dies with it.
		return Page{}, fr.loadErr
	}
	return bp.page(fr), nil
}

// releaseTransientLocked parks a no-fill buffer for the next miss, or drops it
// when the list is full.
func (bp *BufferPool) releaseTransientLocked(fr *frame) {
	fr.pins = 0
	if bp.nTransient < transientFrames {
		fr.next = bp.transient
		bp.transient = fr
		bp.nTransient++
	}
}

func (bp *BufferPool) page(fr *frame) Page {
	return Page{ID: fr.id, Data: fr.data[PageHeaderSize:], fr: fr, bp: bp}
}

// readFrame performs the physical read and integrity check for a loading
// frame. It runs without the pool mutex.
func (bp *BufferPool) readFrame(id PageID, fr *frame) error {
	if d := bp.readDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if err := bp.file.ReadPage(id, fr.data[:]); err != nil {
		return err
	}
	if err := VerifyPage(id, fr.data[:]); err != nil {
		bp.stats.corruptions.Add(1)
		return err
	}
	return nil
}

// NewPage numbers a fresh zeroed page and returns it pinned. The file grows
// when the page is first written back, so with a journal attached it never
// grows before the transaction that rolls the growth back is durable.
func (bp *BufferPool) NewPage() (Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.pages >= uint32(InvalidPage) {
		return Page{}, fmt.Errorf("pager: file full")
	}
	fr, err := bp.newFrameLocked(PageID(bp.pages), true)
	if err != nil {
		return Page{}, err
	}
	bp.pages++
	bp.stats.allocations.Add(1)
	fr.dirty = true
	return bp.page(fr), nil
}

// needsImageLocked reports whether overwriting page id needs its
// before-image journaled first: the page existed at the last commit and is
// not journaled yet.
func (bp *BufferPool) needsImageLocked(id PageID) bool {
	return uint32(id) < bp.committedPages && !bp.journaled[id]
}

// writeFrameLocked seals and writes one frame back to the file, extending
// the file to the page first. Journaling is the caller's.
func (bp *BufferPool) writeFrameLocked(fr *frame) error {
	for bp.file.NumPages() <= uint32(fr.id) {
		if _, err := bp.file.Allocate(); err != nil {
			return err
		}
	}
	bp.written = true
	SealPage(fr.id, fr.data[:])
	if err := bp.file.WritePage(fr.id, fr.data[:]); err != nil {
		return err
	}
	bp.stats.writes.Add(1)
	return nil
}

// newFrameLocked finds room for a new pinned frame, evicting the least
// recently unpinned one if the pool is full. The victim's frame (or one a
// Drop freed earlier) is reused for the incoming page, page bytes and all.
// zero asks for a zeroed page. Without it a reused frame keeps the previous
// page's bytes, for a caller that overwrites every one of them: a read does,
// and a short read is an error.
func (bp *BufferPool) newFrameLocked(id PageID, zero bool) (*frame, error) {
	for len(bp.frames) >= bp.capacity {
		vf := bp.lru
		if vf == nil {
			return nil, fmt.Errorf("pager: buffer pool exhausted: all %d frames pinned", bp.capacity)
		}
		if vf.dirty {
			if bp.journal != nil {
				if err := bp.journal.logForWrite(bp, vf.id); err != nil {
					return nil, err
				}
			}
			if err := bp.writeFrameLocked(vf); err != nil {
				return nil, err
			}
		}
		bp.dropLocked(vf)
		bp.stats.evictions.Add(1)
	}
	fr := bp.free
	if fr == nil {
		fr = &frame{data: new([PageSize]byte)}
	} else {
		bp.free = fr.next
		*fr = frame{data: fr.data}
		if zero {
			clear(fr.data[:])
		}
	}
	fr.id, fr.pins = id, 1
	bp.frames[id] = fr
	bp.stats.resident.Add(1)
	return fr, nil
}

// dropLocked removes an unpinned frame from the pool and parks it on the
// free list. Nothing can still reference it: only pins hand out frames.
func (bp *BufferPool) dropLocked(fr *frame) {
	bp.unqueueLocked(fr)
	delete(bp.frames, fr.id)
	bp.stats.resident.Add(-1)
	fr.next = bp.free
	bp.free = fr
}

// queueLocked makes an unpinned frame the most recently used.
func (bp *BufferPool) queueLocked(fr *frame) {
	fr.prev, fr.next, fr.queued = nil, bp.mru, true
	if bp.mru != nil {
		bp.mru.prev = fr
	} else {
		bp.lru = fr
	}
	bp.mru = fr
}

func (bp *BufferPool) unqueueLocked(fr *frame) {
	if !fr.queued {
		return
	}
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		bp.mru = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		bp.lru = fr.prev
	}
	fr.prev, fr.next, fr.queued = nil, nil, false
}

func (bp *BufferPool) pinLocked(fr *frame) {
	bp.unqueueLocked(fr)
	fr.pins++
}

func (bp *BufferPool) unpin(fr *frame, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr.pins <= 0 {
		panic("pager: unpin of unpinned frame")
	}
	if fr.transient {
		if dirty {
			panic("pager: dirty Unpin of a GetNoFill page")
		}
		bp.releaseTransientLocked(fr)
		return
	}
	fr.dirty = fr.dirty || dirty
	fr.pins--
	if fr.pins == 0 {
		bp.queueLocked(fr)
	}
}

// FlushAll writes every dirty frame back to the file and syncs it. With a
// journal attached it is the commit point of every pool sharing the
// journal, as one transaction: before-images of every page about to be
// overwritten are made durable first, then each pool's pages are written in
// place and its file synced, then the journal is deactivated — so a crash
// at any write point leaves either the old or the new state of all of them
// recoverable, never a mix.
//
// On error the pools stay consistent: frames that were not written back
// keep their dirty bit and the transaction stays open, so a later FlushAll
// (after the fault clears) completes the commit.
func (bp *BufferPool) FlushAll() error {
	if bp.journal != nil {
		return bp.journal.commit()
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.collectDirtyLocked()
	return bp.writeBackLocked()
}

// collectDirtyLocked gathers the dirty frames into flushing in ascending
// page id, not map order: a crash-sweep ordinal then names the same write on
// every run.
func (bp *BufferPool) collectDirtyLocked() {
	dirty := bp.flushing[:0]
	for _, fr := range bp.frames {
		if fr.dirty {
			dirty = append(dirty, fr)
		}
	}
	slices.SortFunc(dirty, func(a, b *frame) int { return cmp.Compare(a.id, b.id) })
	bp.flushing = dirty
}

// writeBackLocked writes the collected frames and syncs the file if
// anything reached it since its last sync.
func (bp *BufferPool) writeBackLocked() error {
	for _, fr := range bp.flushing {
		if err := bp.writeFrameLocked(fr); err != nil {
			return err
		}
		fr.dirty = false
	}
	if !bp.written {
		return nil
	}
	if err := bp.file.Sync(); err != nil {
		return err
	}
	bp.written = false
	return nil
}

// Close flushes every dirty frame (committing the open transaction) and
// closes the file. The last pool of a journal to close closes the journal
// too, truncating it to zero pages first when its last commit left it
// inactive: a closed index keeps no journal bytes. Write and sync errors are
// propagated; the file is closed regardless, so a failed Close must be
// treated as a failed commit, not retried on the closed pool — and the
// journal refuses every later commit of its other pools, leaving the
// transaction to recovery.
func (bp *BufferPool) Close() error {
	flushErr := bp.FlushAll()
	closeErr := bp.file.Close()
	var journalErr error
	if bp.journal != nil {
		journalErr = bp.journal.detach(bp, flushErr)
	}
	if flushErr != nil {
		return flushErr
	}
	if closeErr != nil {
		return closeErr
	}
	return journalErr
}

// RepairPage stages a rewrite of one on-disk page whose stored image is
// corrupt. If the pool holds a frame for the page — content that was
// checksum-verified when read, or was produced by this process — the frame
// is marked dirty so the next flush re-seals and rewrites the disk copy
// from it. Otherwise, when allowZero is set, a zeroed frame is staged: the
// page then verifies clean but carries no data, which is only sound for
// pages nothing references (orphans left behind by record rewrites or a
// forest rebuild). It reports whether a repair was staged; the caller
// commits it with FlushAll, so the rewrite rides the same journaled
// atomic-commit protocol as every other write.
func (bp *BufferPool) RepairPage(id PageID, allowZero bool) (bool, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if uint32(id) >= bp.pages {
		return false, fmt.Errorf("pager: repair of unallocated page %d (have %d)", id, bp.pages)
	}
	if fr, ok := bp.frames[id]; ok {
		if fr.loading {
			// A reader is mid-load on this page (possible only when repair
			// runs without excluding queries): its content is not yet
			// verified, and staging a second frame would alias the page.
			// Report nothing staged; the caller retries after the load.
			return false, nil
		}
		fr.dirty = true
		return true, nil
	}
	if !allowZero {
		return false, nil
	}
	fr, err := bp.newFrameLocked(id, true)
	if err != nil {
		return false, err
	}
	fr.dirty = true
	fr.pins = 0
	bp.queueLocked(fr)
	return true, nil
}

// DropClean discards every clean, unpinned frame and reports how many it
// evicted. Unlike DropAll it never flushes, never touches the I/O counters
// and never fails: frames another reader has pinned (or a writer has
// dirtied) simply survive. Queries that want the paper's cold-cache start
// call it so concurrent queries keep their own delta accounting intact.
func (bp *BufferPool) DropClean() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, fr := range bp.frames {
		if fr.pins > 0 || fr.dirty {
			continue
		}
		bp.dropLocked(fr)
		n++
	}
	return n
}

// DropAll flushes and then discards every unpinned frame, returning the
// pool to a cold state. Benchmarks call it before each query so physical
// read counts are comparable to the paper's direct-I/O numbers. It returns
// an error if any frame is still pinned.
func (bp *BufferPool) DropAll() error {
	if err := bp.FlushAll(); err != nil {
		return err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range bp.frames {
		if fr.pins > 0 {
			return fmt.Errorf("pager: DropAll with page %d still pinned", fr.id)
		}
	}
	for _, fr := range bp.frames {
		bp.dropLocked(fr)
	}
	return nil
}
