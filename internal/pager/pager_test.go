package pager_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
)

func osWriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

func files(t *testing.T) map[string]pager.File {
	t.Helper()
	osf, err := pager.OpenOSFile(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { osf.Close() })
	return map[string]pager.File{"mem": pager.NewMemFile(), "os": osf}
}

func TestFileReadWrite(t *testing.T) {
	for name, f := range files(t) {
		t.Run(name, func(t *testing.T) {
			id0, err := f.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			id1, err := f.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id0 == id1 {
				t.Fatal("Allocate returned duplicate ids")
			}
			if f.NumPages() != 2 {
				t.Fatalf("NumPages = %d", f.NumPages())
			}
			buf := make([]byte, pager.PageSize)
			copy(buf, "hello page")
			if err := f.WritePage(id1, buf); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, pager.PageSize)
			if err := f.ReadPage(id1, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf) {
				t.Error("read back mismatch")
			}
			// Page 0 must still be zeroed.
			if err := f.ReadPage(id0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, pager.PageSize)) {
				t.Error("page 0 not zeroed")
			}
			// Out-of-range access errors.
			if err := f.ReadPage(99, got); err == nil {
				t.Error("read of unallocated page succeeded")
			}
			if err := f.WritePage(99, buf); err == nil {
				t.Error("write of unallocated page succeeded")
			}
		})
	}
}

func TestOSFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := pager.OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := f.Allocate()
	buf := make([]byte, pager.PageSize)
	copy(buf, "persisted")
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := pager.OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumPages() != 1 {
		t.Fatalf("NumPages after reopen = %d", f2.NumPages())
	}
	got := make([]byte, pager.PageSize)
	if err := f2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:9], []byte("persisted")) {
		t.Error("data lost across reopen")
	}
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 4)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	copy(p.Data, "abc")
	id := p.ID
	p.Unpin(true)

	// First Get after NewPage hits the pool.
	p2, err := bp.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2.Data[:3]) != "abc" {
		t.Error("data mismatch")
	}
	p2.Unpin(false)
	st := bp.Stats()
	if st.LogicalReads != 1 || st.PhysicalReads != 0 {
		t.Errorf("stats = %+v, want 1 logical / 0 physical", st)
	}

	// Evict by filling the pool, then re-read: physical read, data intact.
	for i := 0; i < 4; i++ {
		np, _ := bp.NewPage()
		np.Unpin(false)
	}
	p3, err := bp.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(p3.Data[:3]) != "abc" {
		t.Error("dirty page lost on eviction")
	}
	p3.Unpin(false)
	st = bp.Stats()
	if st.PhysicalReads != 1 {
		t.Errorf("physical reads = %d, want 1", st.PhysicalReads)
	}
	if st.Evictions == 0 || st.Writes == 0 {
		t.Errorf("expected evictions and write-back: %+v", st)
	}
}

func TestBufferPoolPinnedPagesNotEvicted(t *testing.T) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 2)
	a, _ := bp.NewPage()
	b, _ := bp.NewPage()
	// Pool full with both pinned: a third page must fail.
	if _, err := bp.NewPage(); err == nil {
		t.Fatal("NewPage succeeded with all frames pinned")
	}
	a.Unpin(false)
	// Now there is one victim candidate.
	c, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	c.Unpin(false)
	b.Unpin(false)
}

func TestBufferPoolLRUOrder(t *testing.T) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 2)
	var ids []pager.PageID
	for i := 0; i < 2; i++ {
		p, _ := bp.NewPage()
		ids = append(ids, p.ID)
		p.Unpin(false)
	}
	// Touch ids[0] so ids[1] becomes LRU.
	p, _ := bp.Get(ids[0])
	p.Unpin(false)
	// Insert a new page: ids[1] must be evicted, ids[0] retained.
	np, _ := bp.NewPage()
	np.Unpin(false)
	bp.ResetStats()
	p, _ = bp.Get(ids[0])
	p.Unpin(false)
	if st := bp.Stats(); st.PhysicalReads != 0 {
		t.Errorf("recently used page was evicted (physical=%d)", st.PhysicalReads)
	}
	p, _ = bp.Get(ids[1])
	p.Unpin(false)
	if st := bp.Stats(); st.PhysicalReads != 1 {
		t.Errorf("LRU page should have been evicted (physical=%d)", st.PhysicalReads)
	}
}

func TestDropAllColdStart(t *testing.T) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 8)
	p, _ := bp.NewPage()
	copy(p.Data, "warm")
	id := p.ID
	p.Unpin(true)
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	bp.ResetStats()
	p2, err := bp.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2.Data[:4]) != "warm" {
		t.Error("DropAll lost dirty data")
	}
	p2.Unpin(false)
	if st := bp.Stats(); st.PhysicalReads != 1 {
		t.Errorf("expected cold read after DropAll, physical=%d", st.PhysicalReads)
	}
}

func TestDropAllRefusesPinned(t *testing.T) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 2)
	p, _ := bp.NewPage()
	if err := bp.DropAll(); err == nil {
		t.Error("DropAll succeeded with a pinned page")
	}
	p.Unpin(false)
	if err := bp.DropAll(); err != nil {
		t.Error(err)
	}
}

func TestDoubleUnpinPanics(t *testing.T) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 2)
	p, _ := bp.NewPage()
	p.Unpin(false)
	defer func() {
		if recover() == nil {
			t.Error("double Unpin did not panic")
		}
	}()
	p.Unpin(false)
}

// Property: under random pin/unpin/write traffic, physical reads never
// exceed logical reads and data written is always read back intact.
func TestBufferPoolRandomTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	file := pager.NewMemFile()
	bp := pager.NewBufferPool(file, 8)
	content := map[pager.PageID]byte{}
	var ids []pager.PageID
	for i := 0; i < 32; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		v := byte(rng.Intn(256))
		p.Data[0] = v
		content[p.ID] = v
		ids = append(ids, p.ID)
		p.Unpin(true)
	}
	for i := 0; i < 2000; i++ {
		id := ids[rng.Intn(len(ids))]
		p, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] != content[id] {
			t.Fatalf("page %d corrupted: got %d want %d", id, p.Data[0], content[id])
		}
		if rng.Intn(3) == 0 {
			v := byte(rng.Intn(256))
			p.Data[0] = v
			content[id] = v
			p.Unpin(true)
		} else {
			p.Unpin(false)
		}
	}
	st := bp.Stats()
	if st.PhysicalReads > st.LogicalReads {
		t.Errorf("physical %d > logical %d", st.PhysicalReads, st.LogicalReads)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Verify through the raw file, bypassing the pool. On disk the payload
	// starts after the page header, and every flushed page must verify.
	buf := make([]byte, pager.PageSize)
	for id, v := range content {
		if err := file.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := pager.VerifyPage(id, buf); err != nil {
			t.Errorf("page %d on file: %v", id, err)
		}
		if buf[pager.PageHeaderSize] != v {
			t.Errorf("page %d on file: got %d want %d", id, buf[pager.PageHeaderSize], v)
		}
	}
}

func BenchmarkBufferPoolGetHit(b *testing.B) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 16)
	p, _ := bp.NewPage()
	id := p.ID
	p.Unpin(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, _ := bp.Get(id)
		pg.Unpin(false)
	}
}

func BenchmarkBufferPoolGetMiss(b *testing.B) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 2)
	var ids [3]pager.PageID
	for i := range ids {
		p, _ := bp.NewPage()
		ids[i] = p.ID
		p.Unpin(false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, _ := bp.Get(ids[i%3])
		pg.Unpin(false)
	}
}

func TestOpenOSFileRejectsPartialPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	if err := osWriteFile(path, make([]byte, pager.PageSize+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := pager.OpenOSFile(path); err == nil {
		t.Error("OpenOSFile accepted a torn file")
	}
}

// A page that disappears under an open file must not read as an empty page:
// truncating the file behind the pool's back turns every read past the new
// end into a short read, and both Get and GetNoFill must fail on it instead
// of handing out zeroes that verify as "allocated, never written".
func TestShortReadIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := pager.OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bp := pager.NewBufferPool(f, 8)
	for i := 0; i < 3; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i + 1)
		p.Unpin(true)
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, pager.PageSize); err != nil {
		t.Fatal(err)
	}
	for name, get := range map[string]func(pager.PageID) (pager.Page, error){"Get": bp.Get, "GetNoFill": bp.GetNoFill} {
		for _, id := range []pager.PageID{1, 2} {
			p, err := get(id)
			if err == nil {
				t.Errorf("%s(%d) of a truncated page returned a page (first byte %#x) and no error", name, id, p.Data[0])
				p.Unpin(false)
				continue
			}
			if !strings.Contains(err.Error(), "short read (0 of 8192 bytes)") {
				t.Errorf("%s(%d): %v, want a short read", name, id, err)
			}
		}
	}
	p, err := bp.Get(0)
	if err != nil {
		t.Fatalf("the page that survived the truncation: %v", err)
	}
	if p.Data[0] != 1 {
		t.Errorf("the page that survived the truncation reads %#x, want 0x1", p.Data[0])
	}
	p.Unpin(false)
}

// Stats and ResetStats must be callable while other goroutines drive the
// pool: the serving layer samples PagesRead on every request.
func TestConcurrentStatsReaders(t *testing.T) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 8)
	var ids []pager.PageID
	for i := 0; i < 32; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
		p.Unpin(true)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < 500; i++ {
				p, err := bp.Get(ids[rng.Intn(len(ids))])
				if err != nil {
					t.Error(err)
					return
				}
				p.Unpin(false)
			}
		}(g)
	}
	for i := 0; i < 1000; i++ {
		s := bp.Stats()
		if s.PhysicalReads > s.LogicalReads+uint64(len(ids)) {
			t.Errorf("stats snapshot inconsistent: %+v", s)
			break
		}
	}
	wg.Wait()
	if got := bp.Stats().LogicalReads; got == 0 {
		t.Error("no logical reads recorded")
	}
	bp.ResetStats()
	if got := bp.Stats(); got.LogicalReads != 0 || got.PhysicalReads != 0 {
		t.Errorf("ResetStats left counters: %+v", got)
	}
}

// Corruption surfaces through the pool as a typed error (never a panic),
// counts in Stats, and a healthy page is still readable afterwards.
func TestBufferPoolDetectsBitFlip(t *testing.T) {
	file := pager.NewMemFile()
	bp := pager.NewBufferPool(file, 4)
	var ids []pager.PageID
	for i := 0; i < 2; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(0xA0 + i)
		ids = append(ids, p.ID)
		p.Unpin(true)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	if err := pagertest.FlipBit(file, ids[0], (pager.PageHeaderSize+100)*8); err != nil {
		t.Fatal(err)
	}
	_, err := bp.Get(ids[0])
	if err == nil {
		t.Fatal("bit flip served as valid data")
	}
	var cpe *pager.CorruptPageError
	if !errors.As(err, &cpe) || !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("wrong error type %T: %v", err, err)
	}
	if cpe.Page != ids[0] {
		t.Errorf("error names page %d, corrupted %d", cpe.Page, ids[0])
	}
	if got := bp.Stats().Corruptions; got != 1 {
		t.Errorf("Corruptions = %d, want 1", got)
	}
	// The healthy neighbor is unaffected.
	p, err := bp.Get(ids[1])
	if err != nil {
		t.Fatalf("healthy page unreadable: %v", err)
	}
	if p.Data[0] != 0xA1 {
		t.Errorf("healthy page payload %x", p.Data[0])
	}
	p.Unpin(false)
	// Retrying the corrupt page keeps failing (and keeps counting) rather
	// than caching the bad frame.
	if _, err := bp.Get(ids[0]); err == nil {
		t.Fatal("corrupt page served on retry")
	}
	if got := bp.Stats().Corruptions; got != 2 {
		t.Errorf("Corruptions after retry = %d, want 2", got)
	}
}
