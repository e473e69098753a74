package pager

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// FaultFile wraps a File and fails operations on command. It exists for
// failure-injection tests across the storage stack (btree, docstore, prix):
// a database layered on a flaky disk must surface errors, not corrupt
// state or panic.
//
// Three fault mechanisms compose:
//
//   - countdowns (FailReadsAfter / FailWritesAfter): the n+1-th operation
//     fails, deterministically;
//   - seeded probabilistic rates (FailReadsWithRate / FailWritesWithRate):
//     each operation fails independently with a given probability, drawn
//     from a deterministic seeded source;
//   - a PowerClock (SetPowerClock): a shared write-operation counter that
//     "cuts power" at the k-th write across every file it is attached to
//     and freezes the inner files as the crash image, failing everything
//     afterwards.
//
// The inner file is the durable image: what a disk holds after a power
// loss. Writes, allocations and truncates stay pending in the FaultFile
// until Sync applies them to it (reads see them meanwhile), so a power cut
// loses what no Sync made durable, as the clock's Loss says, and the
// cutting page write may land torn. A missing fsync therefore shows as lost
// or half-applied writes in the crash image. A clean Close applies what is pending, as an operating system's
// page cache would on a process exit.
//
// Countdowns and rates model a flaky-but-alive disk and are cleared by
// Heal; a power cut is not healable — tests reopen the frozen inner file
// instead.
type FaultFile struct {
	mu    sync.Mutex
	inner File
	// failReadAfter / failWriteAfter count down; when they reach zero the
	// corresponding operation fails until the budget is reset. Negative
	// means "never fail".
	failReadAfter  int
	failWriteAfter int
	// readRate / writeRate are per-operation failure probabilities in
	// [0, 1], each with its own deterministic source.
	readRate  float64
	writeRate float64
	readRng   *rand.Rand
	writeRng  *rand.Rand

	clock *PowerClock
	// pending holds the writes, allocations and truncates since the last
	// Sync in issue order; view is each pending page's latest content and
	// size the page count they leave. Reads go through both.
	pending []pendingOp
	view    map[PageID][]byte
	size    uint32
}

// pendingOp is one unsynced mutation. A truncate carries its new page count
// in id.
type pendingOp struct {
	kind byte
	id   PageID
	data []byte
}

const (
	opWrite = byte(iota)
	opAllocate
	opTruncate
)

// ErrInjected is the error returned by scheduled failures.
var ErrInjected = fmt.Errorf("pager: injected fault")

// ErrPowerCut is the error returned by every operation at and after a
// PowerClock's cut point: the simulated machine is off.
var ErrPowerCut = fmt.Errorf("pager: simulated power cut")

// NewFaultFile wraps inner with no failures scheduled.
func NewFaultFile(inner File) *FaultFile {
	return &FaultFile{inner: inner, failReadAfter: -1, failWriteAfter: -1,
		view: map[PageID][]byte{}, size: inner.NumPages()}
}

// Inner returns the wrapped File — after a power cut it holds the frozen
// crash image a test reopens.
func (f *FaultFile) Inner() File { return f.inner }

// FailReadsAfter schedules the n+1-th subsequent read to fail (0 = next).
func (f *FaultFile) FailReadsAfter(n int) {
	f.mu.Lock()
	f.failReadAfter = n
	f.mu.Unlock()
}

// FailWritesAfter schedules the n+1-th subsequent write or allocation to
// fail (0 = next).
func (f *FaultFile) FailWritesAfter(n int) {
	f.mu.Lock()
	f.failWriteAfter = n
	f.mu.Unlock()
}

// FailReadsWithRate makes every subsequent read fail independently with
// probability rate, drawn from a source seeded with seed (deterministic
// across runs). A rate of 0 disables probabilistic read faults.
func (f *FaultFile) FailReadsWithRate(rate float64, seed int64) {
	f.mu.Lock()
	f.readRate = rate
	f.readRng = rand.New(rand.NewSource(seed))
	f.mu.Unlock()
}

// FailWritesWithRate makes every subsequent write, allocation, sync or
// truncate fail independently with probability rate, drawn from a source
// seeded with seed. A rate of 0 disables probabilistic write faults.
func (f *FaultFile) FailWritesWithRate(rate float64, seed int64) {
	f.mu.Lock()
	f.writeRate = rate
	f.writeRng = rand.New(rand.NewSource(seed))
	f.mu.Unlock()
}

// SetPowerClock attaches a (possibly shared) power-cut clock. Attach the
// same clock to a main file and its journal file to cut power at a global
// write ordinal across both.
func (f *FaultFile) SetPowerClock(c *PowerClock) {
	f.mu.Lock()
	f.clock = c
	f.mu.Unlock()
	c.attach(f)
}

// Heal clears countdown and probabilistic failures. It does not revive a
// cut PowerClock: a power cut is a crash, not a transient fault.
func (f *FaultFile) Heal() {
	f.mu.Lock()
	f.failReadAfter, f.failWriteAfter = -1, -1
	f.readRate, f.writeRate = 0, 0
	f.mu.Unlock()
}

// FlipBit flips a single bit of page id as reads see it, bypassing all
// fault scheduling: it models silent media corruption, not an I/O error.
func (f *FaultFile) FlipBit(id PageID, bit int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if data, ok := f.view[id]; ok {
		if bit < 0 || bit >= PageSize*8 {
			return fmt.Errorf("pager: FlipBit offset %d out of range", bit)
		}
		data[bit/8] ^= 1 << (bit % 8)
		return nil
	}
	return FlipBit(f.inner, id, bit)
}

// FlipBit flips one bit of page id in f (bit 0 is the lowest bit of the
// page's first byte). Tests use it to simulate media corruption.
func FlipBit(f File, id PageID, bit int) error {
	if bit < 0 || bit >= PageSize*8 {
		return fmt.Errorf("pager: FlipBit offset %d out of range", bit)
	}
	var buf [PageSize]byte
	if err := f.ReadPage(id, buf[:]); err != nil {
		return err
	}
	buf[bit/8] ^= 1 << (bit % 8)
	return f.WritePage(id, buf[:])
}

func (f *FaultFile) readFaultLocked() error {
	if f.clock != nil && f.clock.DidCut() {
		return ErrPowerCut
	}
	if f.failReadAfter == 0 {
		return ErrInjected
	}
	if f.failReadAfter > 0 {
		f.failReadAfter--
	}
	if f.readRate > 0 && f.readRng.Float64() < f.readRate {
		return ErrInjected
	}
	return nil
}

func (f *FaultFile) writeFaultLocked() error {
	if f.failWriteAfter == 0 {
		return ErrInjected
	}
	if f.failWriteAfter > 0 {
		f.failWriteAfter--
	}
	if f.writeRate > 0 && f.writeRng.Float64() < f.writeRate {
		return ErrInjected
	}
	return nil
}

// writeOpLocked runs the checks every write-class operation makes: the
// scheduled faults, then the power clock. At the cut point it applies the
// power loss to every file on the clock — tearing page id with buf's
// prefix when buf is set — and returns ErrPowerCut.
func (f *FaultFile) writeOpLocked(id PageID, buf []byte) error {
	if err := f.writeFaultLocked(); err != nil {
		return err
	}
	if f.clock == nil {
		return nil
	}
	torn, cutNow, err := f.clock.tick()
	if err != nil {
		return err
	}
	if cutNow {
		f.clock.powerLoss(f)
		if torn > 0 && buf != nil && uint32(id) < f.inner.NumPages() {
			var cur [PageSize]byte
			if f.inner.ReadPage(id, cur[:]) == nil {
				copy(cur[:torn], buf[:torn])
				_ = f.inner.WritePage(id, cur[:])
			}
		}
		return ErrPowerCut
	}
	return nil
}

// ReadPage implements File.
func (f *FaultFile) ReadPage(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.readFaultLocked(); err != nil {
		return err
	}
	if uint32(id) >= f.size {
		return fmt.Errorf("pager: read of unallocated page %d (have %d)", id, f.size)
	}
	if data, ok := f.view[id]; ok {
		copy(buf, data)
		return nil
	}
	return f.inner.ReadPage(id, buf)
}

// WritePage implements File. The write is pending until the next Sync; at
// the power-cut point the clock's torn-byte prefix of it reaches the inner
// file (a torn write) before ErrPowerCut returns.
func (f *FaultFile) WritePage(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writeOpLocked(id, buf); err != nil {
		return err
	}
	if uint32(id) >= f.size {
		return fmt.Errorf("pager: write of unallocated page %d (have %d)", id, f.size)
	}
	data := append([]byte(nil), buf[:PageSize]...)
	f.pending = append(f.pending, pendingOp{kind: opWrite, id: id, data: data})
	f.view[id] = data
	return nil
}

// Allocate implements File.
func (f *FaultFile) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writeOpLocked(0, nil); err != nil {
		return InvalidPage, err
	}
	if f.size >= uint32(InvalidPage) {
		return InvalidPage, fmt.Errorf("pager: file full")
	}
	id := PageID(f.size)
	f.size++
	f.pending = append(f.pending, pendingOp{kind: opAllocate, id: id})
	f.view[id] = make([]byte, PageSize)
	return id, nil
}

// NumPages implements File.
func (f *FaultFile) NumPages() uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Truncate implements File.
func (f *FaultFile) Truncate(n uint32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writeOpLocked(0, nil); err != nil {
		return err
	}
	if n > f.size {
		return fmt.Errorf("pager: truncate to %d pages, have %d", n, f.size)
	}
	f.pending = append(f.pending, pendingOp{kind: opTruncate, id: PageID(n)})
	for id := range f.view {
		if uint32(id) >= n {
			delete(f.view, id)
		}
	}
	f.size = n
	return nil
}

// Sync implements File: every pending operation reaches the inner file,
// which is then synced.
func (f *FaultFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writeOpLocked(0, nil); err != nil {
		return err
	}
	if err := f.applyLocked(nil); err != nil {
		return err
	}
	return f.inner.Sync()
}

// Close implements File. Like Sync it honors a pending write fault, so a
// flush-on-close path cannot silently swallow a scheduled failure. Unless
// the power was cut, what is pending reaches the inner file first.
func (f *FaultFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writeFaultLocked(); err != nil {
		return err
	}
	if f.clock == nil || !f.clock.DidCut() {
		if err := f.applyLocked(nil); err != nil {
			return err
		}
	}
	return f.inner.Close()
}

// applyLocked replays the pending operations on the inner file in issue
// order, each only if keep (nil keeps all) says so, and clears them. A kept
// write to a page the inner file does not have extends it with zeroed
// pages first, as a write past the end of an operating-system file does.
func (f *FaultFile) applyLocked(keep func(i int) bool) error {
	for i, op := range f.pending {
		if keep != nil && !keep(i) {
			continue
		}
		switch op.kind {
		case opWrite, opAllocate:
			for f.inner.NumPages() <= uint32(op.id) {
				if _, err := f.inner.Allocate(); err != nil {
					return err
				}
			}
			if op.kind == opWrite {
				if err := f.inner.WritePage(op.id, op.data); err != nil {
					return err
				}
			}
		case opTruncate:
			if uint32(op.id) < f.inner.NumPages() {
				if err := f.inner.Truncate(uint32(op.id)); err != nil {
					return err
				}
			}
		}
	}
	f.pending = f.pending[:0]
	clear(f.view)
	f.size = f.inner.NumPages()
	return nil
}

// loseLocked applies a power cut to the file: of its unsynced operations,
// what loss keeps reaches the inner file and the rest is gone.
func (f *FaultFile) loseLocked(loss Loss, rng *rand.Rand) {
	switch loss {
	case LoseAll:
		_ = f.applyLocked(func(int) bool { return false })
	case LoseSubset:
		_ = f.applyLocked(func(int) bool { return rng.Intn(2) == 0 })
	case TearLast:
		last := -1
		for i, op := range f.pending {
			if op.kind == opWrite {
				last = i
			}
		}
		if last < 0 {
			_ = f.applyLocked(nil)
			return
		}
		op := f.pending[last]
		_ = f.applyLocked(func(i int) bool { return i != last })
		var cur [PageSize]byte
		if uint32(op.id) < f.inner.NumPages() && f.inner.ReadPage(op.id, cur[:]) == nil {
			copy(cur[:PageSize/2], op.data)
			_ = f.inner.WritePage(op.id, cur[:])
		}
	}
}

// Loss is what a power cut does to the operations no Sync made durable
// (page files' operations and FaultFS files' bytes alike), and to the
// FaultFS renames no SyncDir made durable.
type Loss int

const (
	// LoseAll drops every unsynced operation and undoes every unsynced
	// rename.
	LoseAll Loss = iota
	// LoseSubset keeps a seeded subset, replayed in issue order: a disk
	// that reorders its write-back. Unsynced renames are undone by the same
	// seeded choice.
	LoseSubset
	// TearLast keeps all but each file's last unsynced page write, which
	// lands torn, its first half over the old bytes: a disk that writes back
	// in order and was mid-page when the power went. Of the unsynced
	// renames, the oldest in each directory is undone and the later ones
	// kept, since a directory need not write its entries back in order.
	TearLast
)

// PowerClock simulates pulling the plug at the k-th write-class operation
// (WritePage, Allocate, Sync, Truncate) observed across every FaultFile it
// is attached to, and every FaultFS operation that ticks it. At the cut
// each attached file loses its unsynced operations, and each FaultFS on the
// clock its files' unsynced bytes and its unsynced renames, as the clock's
// Loss says, and the cutting page write persists only its first TornBytes
// bytes (a torn sector run); every operation after the cut — reads
// included — fails with ErrPowerCut, freezing the inner files as the crash
// image.
//
// A clock with cutAfter <= 0 never cuts and just counts: crash-sweep tests
// first run a workload once to learn its write count W, then re-run it
// W times cutting at k = 1..W.
type PowerClock struct {
	mu       sync.Mutex
	cutAfter int64
	torn     int
	loss     Loss
	lossSeed int64
	count    int64
	cut      bool
	files    []*FaultFile
	fss      []*FaultFS
}

// NewPowerClock returns a clock that cuts power at the cutAfter-th
// write-class operation (1-based); cutAfter <= 0 only counts.
func NewPowerClock(cutAfter int64) *PowerClock {
	return &PowerClock{cutAfter: cutAfter}
}

// SetTornBytes makes the cutting page write persist its first n bytes
// instead of nothing.
func (c *PowerClock) SetTornBytes(n int) {
	c.mu.Lock()
	if n > PageSize {
		n = PageSize
	}
	c.torn = n
	c.mu.Unlock()
}

// SetLoss sets what a cut does to the unsynced operations (LoseAll by
// default); seed seeds LoseSubset's choice.
func (c *PowerClock) SetLoss(loss Loss, seed int64) {
	c.mu.Lock()
	c.loss, c.lossSeed = loss, seed
	c.mu.Unlock()
}

func (c *PowerClock) attach(f *FaultFile) {
	c.mu.Lock()
	c.files = append(c.files, f)
	c.mu.Unlock()
}

// powerLoss applies the cut to every attached file, in the order they were
// attached, then to every FaultFS's files and renames. locked is the file
// whose mutex the caller holds (nil for none).
func (c *PowerClock) powerLoss(locked *FaultFile) {
	c.mu.Lock()
	files := append([]*FaultFile(nil), c.files...)
	fss := append([]*FaultFS(nil), c.fss...)
	loss, rng := c.loss, rand.New(rand.NewSource(c.lossSeed))
	c.mu.Unlock()
	for _, f := range files {
		if f != locked {
			f.mu.Lock()
		}
		f.loseLocked(loss, rng)
		if f != locked {
			f.mu.Unlock()
		}
	}
	for _, fs := range fss {
		fs.lose(loss, rng)
	}
}

// Writes returns the number of write-class operations observed.
func (c *PowerClock) Writes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// DidCut reports whether the cut point has been reached.
func (c *PowerClock) DidCut() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cut
}

// Tick records one write-class operation performed outside the pager.
// FaultFS calls it with the same clock the index page files carry, so one
// crash sweep covers every write point of a build, not just the paged
// ones. It returns cut=true exactly at the cut point, after the attached
// page files have lost their unsynced writes (the caller may persist a
// deterministic torn prefix before failing), and ErrPowerCut for every
// operation after it.
func (c *PowerClock) Tick() (cut bool, err error) {
	_, cutNow, err := c.tick()
	if cutNow {
		c.powerLoss(nil)
	}
	return cutNow, err
}

// tick records one write-class operation. It returns the torn-byte count
// and cutNow=true exactly at the cut point, and ErrPowerCut for every
// operation after it.
func (c *PowerClock) tick() (torn int, cutNow bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut {
		return 0, false, ErrPowerCut
	}
	c.count++
	if c.cutAfter > 0 && c.count >= c.cutAfter {
		c.cut = true
		return c.torn, true, nil
	}
	return 0, false, nil
}

// FaultFS is FaultFile's counterpart for the non-page artifacts: it wraps an
// FS so that every write-class operation — file creation, each Write, Sync,
// Rename, Remove, RemoveAll, MkdirAll, SyncDir — ticks a PowerClock. Crash-sweep
// tests attach the same clock here and to the index page files (through
// prix.Options.OpenFile and a FaultFile), so one ordinal spans every write
// of a build.
//
// A file's writes reach the inner FS at once, but only those its last Sync
// covered are durable. At a cut the clock's Loss says what each file the
// FaultFS created keeps of the bytes past its last Sync: LoseAll nothing, so
// it is cut back to its synced length (0 if never synced); LoseSubset a
// prefix seeded like the page files' subset; TearLast all but the second
// half of its last write, a torn append. The cutting Write is pending like
// any other, so under TearLast its first half persists and the CRC seals
// are exercised. A missing file sync therefore shows as a file the crash
// image holds short.
//
// A rename reaches the inner FS at once but stays pending until a SyncDir
// of its target's directory; at a cut the clock's Loss says which pending
// renames are undone, newest first: the entry moves back to its old name
// and a target it replaced gets its old bytes back. A missing directory
// sync therefore shows as a rename the crash image lost. Creates and
// removes still reach the inner FS for good.
type FaultFS struct {
	inner FS
	clock *PowerClock

	mu      sync.Mutex
	renames []pendingRename
	// files are the files Create made and no remove has deleted since, in
	// creation order, under their current paths.
	files []*createdFile
}

// createdFile is a file a FaultFS created: its current path and what a cut
// may take from it, the bytes past its last Sync.
type createdFile struct {
	path   string
	synced int64 // length the last Sync made durable
	size   int64 // length written
	last   int64 // length of the last write no Sync has covered
}

// pendingRename is one rename no SyncDir has made durable yet.
type pendingRename struct {
	oldPath, newPath string
	// replaced reports that the rename overwrote a file, whose bytes are
	// prior.
	replaced bool
	prior    []byte
}

// NewFaultFS wraps inner with the given power clock.
func NewFaultFS(inner FS, clock *PowerClock) *FaultFS {
	f := &FaultFS{inner: inner, clock: clock}
	clock.mu.Lock()
	clock.fss = append(clock.fss, f)
	clock.mu.Unlock()
	return f
}

func (f *FaultFS) tick() error {
	cut, err := f.clock.Tick()
	if err != nil {
		return err
	}
	if cut {
		return ErrPowerCut
	}
	return nil
}

func (f *FaultFS) Create(path string) (FSFile, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	c := &createdFile{path: path}
	f.mu.Lock()
	f.forgetLocked(path)
	f.files = append(f.files, c)
	f.mu.Unlock()
	return &faultFSFile{inner: inner, fs: f, c: c}, nil
}

// forgetLocked stops tracking the files at path or under it: a remove
// deleted them, or a create or rename replaced them.
func (f *FaultFS) forgetLocked(path string) {
	f.files = slices.DeleteFunc(f.files, func(c *createdFile) bool { return within(c.path, path) })
}

// within reports whether path is dir or lies under it.
func within(path, dir string) bool {
	return path == dir || strings.HasPrefix(path, dir+string(filepath.Separator))
}

func (f *FaultFS) Open(path string) (io.ReadCloser, error) { return f.inner.Open(path) }

func (f *FaultFS) Rename(oldPath, newPath string) error {
	if err := f.tick(); err != nil {
		return err
	}
	r := pendingRename{oldPath: oldPath, newPath: newPath}
	if rc, err := f.inner.Open(newPath); err == nil {
		// A directory opens but does not read: only a file's bytes come back.
		r.prior, err = io.ReadAll(rc)
		r.replaced = err == nil
		rc.Close()
	}
	if err := f.inner.Rename(oldPath, newPath); err != nil {
		return err
	}
	f.mu.Lock()
	f.renames = append(f.renames, r)
	f.forgetLocked(newPath)
	for _, c := range f.files {
		if within(c.path, oldPath) {
			c.path = newPath + c.path[len(oldPath):]
		}
	}
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) Remove(path string) error {
	if err := f.tick(); err != nil {
		return err
	}
	f.mu.Lock()
	f.forgetLocked(path)
	f.mu.Unlock()
	return f.inner.Remove(path)
}

func (f *FaultFS) RemoveAll(path string) error {
	if err := f.tick(); err != nil {
		return err
	}
	f.mu.Lock()
	f.forgetLocked(path)
	f.mu.Unlock()
	return f.inner.RemoveAll(path)
}

func (f *FaultFS) MkdirAll(path string) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path)
}

func (f *FaultFS) ReadDir(path string) ([]string, error) { return f.inner.ReadDir(path) }

// SyncDir ticks the clock like every other write-class operation and makes
// the pending renames into the directory durable.
func (f *FaultFS) SyncDir(path string) error {
	if err := f.tick(); err != nil {
		return err
	}
	if err := f.inner.SyncDir(path); err != nil {
		return err
	}
	dir := filepath.Clean(path)
	f.mu.Lock()
	kept := f.renames[:0]
	for _, r := range f.renames {
		if filepath.Dir(r.newPath) != dir {
			kept = append(kept, r)
		}
	}
	f.renames = kept
	f.mu.Unlock()
	return nil
}

// lose applies a power cut: each created file is cut back to what loss
// keeps of its unsynced bytes, then the pending renames loss undoes are
// reversed newest first, each entry moved back to its old name and a
// replaced file's bytes restored. Like loseLocked's replay it is best
// effort: the crash image is what it leaves.
func (f *FaultFS) lose(loss Loss, rng *rand.Rand) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.files {
		if c.size == c.synced {
			continue
		}
		keep := c.synced
		switch loss {
		case LoseSubset:
			keep += rng.Int63n(c.size - c.synced + 1)
		case TearLast:
			keep = c.size - c.last + c.last/2
		}
		f.truncate(c.path, keep)
		c.size, c.last = keep, 0
	}
	undo := make([]bool, len(f.renames))
	seen := map[string]bool{}
	for i, r := range f.renames {
		switch loss {
		case LoseAll:
			undo[i] = true
		case LoseSubset:
			undo[i] = rng.Intn(2) == 0
		case TearLast:
			dir := filepath.Dir(r.newPath)
			undo[i] = !seen[dir]
			seen[dir] = true
		}
	}
	for i := len(f.renames) - 1; i >= 0; i-- {
		r := f.renames[i]
		if undo[i] && f.inner.Rename(r.newPath, r.oldPath) == nil && r.replaced {
			f.rewrite(r.newPath, r.prior)
		}
	}
	f.renames = nil
}

// truncate cuts the inner file at path back to n bytes.
func (f *FaultFS) truncate(path string, n int64) {
	rc, err := f.inner.Open(path)
	if err != nil {
		return
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err == nil && int64(len(data)) > n {
		f.rewrite(path, data[:n])
	}
}

// rewrite replaces the inner file at path with data, durably.
func (f *FaultFS) rewrite(path string, data []byte) {
	if w, err := f.inner.Create(path); err == nil {
		_, _ = w.Write(data)
		_ = w.Sync()
		_ = w.Close()
	}
}

type faultFSFile struct {
	inner FSFile
	fs    *FaultFS
	c     *createdFile
}

// Write ticks the clock. The write reaches the inner file pending until the
// next Sync; the cutting write too, before the cut applies the loss.
func (w *faultFSFile) Write(p []byte) (int, error) {
	_, cutNow, err := w.fs.clock.tick()
	if err != nil {
		return 0, err
	}
	n, err := w.inner.Write(p)
	w.fs.mu.Lock()
	w.c.size += int64(n)
	w.c.last = int64(n)
	w.fs.mu.Unlock()
	if cutNow {
		w.fs.clock.powerLoss(nil)
		return 0, ErrPowerCut
	}
	return n, err
}

// Sync ticks the clock and makes every byte written so far durable.
func (w *faultFSFile) Sync() error {
	if err := w.fs.tick(); err != nil {
		return err
	}
	if err := w.inner.Sync(); err != nil {
		return err
	}
	w.fs.mu.Lock()
	w.c.synced, w.c.last = w.c.size, 0
	w.fs.mu.Unlock()
	return nil
}

func (w *faultFSFile) Close() error {
	// Close is not a write point: after a cut the frozen file must still be
	// closable so the sweep harness can inspect the crash image.
	return w.inner.Close()
}
