package pager

import (
	"fmt"
	"io"
	"math/rand"
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
//     "cuts power" at the k-th write across every file it is attached to,
//     optionally tearing that final page write, and freezes the backing
//     image by failing everything afterwards.
//
// Countdowns and rates model a flaky-but-alive disk and are cleared by
// Heal; a power cut models process death and is not healable — tests
// reopen the frozen inner file instead.
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
}

// ErrInjected is the error returned by scheduled failures.
var ErrInjected = fmt.Errorf("pager: injected fault")

// ErrPowerCut is the error returned by every operation at and after a
// PowerClock's cut point: the simulated machine is off.
var ErrPowerCut = fmt.Errorf("pager: simulated power cut")

// NewFaultFile wraps inner with no failures scheduled.
func NewFaultFile(inner File) *FaultFile {
	return &FaultFile{inner: inner, failReadAfter: -1, failWriteAfter: -1}
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
}

// Heal clears countdown and probabilistic failures. It does not revive a
// cut PowerClock: a power cut is a crash, not a transient fault.
func (f *FaultFile) Heal() {
	f.mu.Lock()
	f.failReadAfter, f.failWriteAfter = -1, -1
	f.readRate, f.writeRate = 0, 0
	f.mu.Unlock()
}

// FlipBit flips a single bit of the stored image of page id, bypassing all
// fault scheduling: it models silent media corruption, not an I/O error.
func (f *FaultFile) FlipBit(id PageID, bit int) error {
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

func (f *FaultFile) readFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
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

func (f *FaultFile) writeFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
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

// ReadPage implements File.
func (f *FaultFile) ReadPage(id PageID, buf []byte) error {
	if err := f.readFault(); err != nil {
		return err
	}
	return f.inner.ReadPage(id, buf)
}

// WritePage implements File. At the power-cut point the first tornBytes of
// the page reach the inner file (a torn write) before ErrPowerCut returns.
func (f *FaultFile) WritePage(id PageID, buf []byte) error {
	if err := f.writeFault(); err != nil {
		return err
	}
	f.mu.Lock()
	clock := f.clock
	f.mu.Unlock()
	if clock != nil {
		torn, cutNow, err := clock.tick()
		if err != nil {
			return err
		}
		if cutNow {
			if torn > 0 {
				var cur [PageSize]byte
				if f.inner.ReadPage(id, cur[:]) == nil {
					copy(cur[:torn], buf[:torn])
					_ = f.inner.WritePage(id, cur[:])
				}
			}
			return ErrPowerCut
		}
	}
	return f.inner.WritePage(id, buf)
}

// Allocate implements File.
func (f *FaultFile) Allocate() (PageID, error) {
	if err := f.writeFault(); err != nil {
		return InvalidPage, err
	}
	if err := f.clockTick(); err != nil {
		return InvalidPage, err
	}
	return f.inner.Allocate()
}

// NumPages implements File.
func (f *FaultFile) NumPages() uint32 { return f.inner.NumPages() }

// Truncate implements File.
func (f *FaultFile) Truncate(n uint32) error {
	if err := f.writeFault(); err != nil {
		return err
	}
	if err := f.clockTick(); err != nil {
		return err
	}
	return f.inner.Truncate(n)
}

// Sync implements File.
func (f *FaultFile) Sync() error {
	if err := f.writeFault(); err != nil {
		return err
	}
	if err := f.clockTick(); err != nil {
		return err
	}
	return f.inner.Sync()
}

// Close implements File. Like Sync it honors a pending write fault, so a
// flush-on-close path cannot silently swallow a scheduled failure.
func (f *FaultFile) Close() error {
	if err := f.writeFault(); err != nil {
		return err
	}
	return f.inner.Close()
}

// clockTick advances the power clock for a non-page-write mutation
// (Allocate, Sync, Truncate): at and after the cut point the operation
// does not happen at all.
func (f *FaultFile) clockTick() error {
	f.mu.Lock()
	clock := f.clock
	f.mu.Unlock()
	if clock == nil {
		return nil
	}
	torn, cutNow, err := clock.tick()
	_ = torn
	if err != nil {
		return err
	}
	if cutNow {
		return ErrPowerCut
	}
	return nil
}

// PowerClock simulates pulling the plug at the k-th write-class operation
// (WritePage, Allocate, Sync, Truncate) observed across every FaultFile it
// is attached to. The cutting WritePage optionally persists only its first
// TornBytes bytes (a torn sector run); every operation after the cut —
// reads included — fails with ErrPowerCut, freezing the inner files as the
// crash image.
//
// A clock with cutAfter <= 0 never cuts and just counts: crash-sweep tests
// first run a workload once to learn its write count W, then re-run it
// W times cutting at k = 1..W.
type PowerClock struct {
	mu       sync.Mutex
	cutAfter int64
	torn     int
	count    int64
	cut      bool
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
// ones. It returns cut=true exactly at the cut point (the caller may
// persist a deterministic torn prefix before failing) and ErrPowerCut for
// every operation after it.
func (c *PowerClock) Tick() (cut bool, err error) {
	_, cutNow, err := c.tick()
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
// Rename, Remove, RemoveAll, MkdirAll — ticks a PowerClock. Crash-sweep
// tests attach the same clock here and to the index page files (through
// prix.Options.OpenFile and a FaultFile), so one ordinal spans every write
// of a build. The cutting Write persists the first half of its buffer — a
// torn append — so the CRC seals are exercised too.
type FaultFS struct {
	inner FS
	clock *PowerClock
}

// NewFaultFS wraps inner with the given power clock.
func NewFaultFS(inner FS, clock *PowerClock) *FaultFS {
	return &FaultFS{inner: inner, clock: clock}
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
	return &faultFSFile{inner: inner, fs: f}, nil
}

func (f *FaultFS) Open(path string) (io.ReadCloser, error) { return f.inner.Open(path) }

func (f *FaultFS) Rename(oldPath, newPath string) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

func (f *FaultFS) Remove(path string) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

func (f *FaultFS) RemoveAll(path string) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.RemoveAll(path)
}

func (f *FaultFS) MkdirAll(path string) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path)
}

func (f *FaultFS) ReadDir(path string) ([]string, error) { return f.inner.ReadDir(path) }

type faultFSFile struct {
	inner FSFile
	fs    *FaultFS
}

// Write ticks the clock; the cutting write persists a deterministic torn
// prefix (half the buffer) before failing.
func (w *faultFSFile) Write(p []byte) (int, error) {
	cut, err := w.fs.clock.Tick()
	if err != nil {
		return 0, err
	}
	if cut {
		n := len(p) / 2
		if n > 0 {
			w.inner.Write(p[:n])
		}
		return n, ErrPowerCut
	}
	return w.inner.Write(p)
}

func (w *faultFSFile) Sync() error {
	if err := w.fs.tick(); err != nil {
		return err
	}
	return w.inner.Sync()
}

func (w *faultFSFile) Close() error {
	// Close is not a write point: after a cut the frozen file must still be
	// closable so the sweep harness can inspect the crash image.
	return w.inner.Close()
}
