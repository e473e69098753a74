package pager

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// noFillPool is a pool of capacity frames over n flushed pages whose first
// payload byte is the page id.
func noFillPool(t *testing.T, capacity, n int) (*BufferPool, *MemFile, []PageID) {
	t.Helper()
	file := NewMemFile()
	bp := NewBufferPool(file, capacity)
	ids := make([]PageID, n)
	for i := range ids {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(p.ID)
		ids[i] = p.ID
		p.Unpin(true)
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	return bp, file, ids
}

// A page the pool holds is served from its frame — clean or dirty, the bytes
// are the pool's, not the file's — as a hit that reads nothing.
func TestNoFillReadsResidentFrame(t *testing.T) {
	bp, _, ids := noFillPool(t, 4, 2)
	p, err := bp.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(false)
	d, err := bp.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	d.Data[0] = 0xEE // dirty, not written back: the file still says ids[1]
	d.Unpin(true)

	before := bp.Stats()
	for _, c := range []struct {
		id   PageID
		want byte
	}{{ids[0], byte(ids[0])}, {ids[1], 0xEE}} {
		p, err := bp.GetNoFill(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] != c.want {
			t.Errorf("page %d: no-fill read %#x, the pool holds %#x", c.id, p.Data[0], c.want)
		}
		p.Unpin(false)
	}
	st := bp.Stats()
	if st.PhysicalReads != before.PhysicalReads || st.NoFillReads != 0 || st.LogicalReads != before.LogicalReads+2 {
		t.Errorf("resident no-fill reads moved the counters: %+v → %+v", before, st)
	}
	if st.Resident != 2 {
		t.Errorf("Resident = %d, want 2", st.Resident)
	}
}

// A miss is counted like Get's (one logical and one physical read) but leaves
// no frame; a corrupt page fails exactly as under Get: a *CorruptPageError
// wrapping ErrCorrupt, one more Corruptions, and still no frame.
func TestNoFillMissLeavesNoFrame(t *testing.T) {
	bp, file, ids := noFillPool(t, 4, 3)
	before := bp.Stats()
	p, err := bp.GetNoFill(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Data[0] != byte(ids[0]) {
		t.Errorf("page %d read as %#x", ids[0], p.Data[0])
	}
	if bp.Contains(ids[0]) {
		t.Error("a no-fill miss is resident while pinned")
	}
	p.Unpin(false)
	st := bp.Stats()
	if st.LogicalReads != before.LogicalReads+1 || st.PhysicalReads != before.PhysicalReads+1 || st.NoFillReads != 1 {
		t.Errorf("miss counted as %+v (before %+v), want one logical, physical and no-fill read", st, before)
	}
	if bp.Contains(ids[0]) || st.Resident != 0 {
		t.Errorf("a no-fill miss left a frame: Contains %v, Resident %d", bp.Contains(ids[0]), st.Resident)
	}

	if err := FlipBit(file, ids[1], (PageHeaderSize+100)*8); err != nil {
		t.Fatal(err)
	}
	for _, get := range []func(PageID) (Page, error){bp.Get, bp.GetNoFill} {
		corrupt := bp.Stats().Corruptions
		_, err := get(ids[1])
		var cpe *CorruptPageError
		if !errors.As(err, &cpe) || !errors.Is(err, ErrCorrupt) || cpe.Page != ids[1] {
			t.Errorf("corrupt page read returned %T %v, want a *CorruptPageError for page %d", err, err, ids[1])
		}
		if got := bp.Stats().Corruptions; got != corrupt+1 {
			t.Errorf("Corruptions %d → %d, want one more", corrupt, got)
		}
		if bp.Contains(ids[1]) {
			t.Error("a corrupt page is resident")
		}
	}
	// A read-only handle: dirtying it would be lost, so it panics.
	p, err = bp.GetNoFill(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Unpin(true) of a no-fill miss did not panic")
		}
	}()
	p.Unpin(true)
}

// In steady state a no-fill miss allocates nothing: its buffer comes off the
// pool's transient list and goes back on Unpin.
func TestNoFillReadAllocs(t *testing.T) {
	bp, _, ids := noFillPool(t, 1, 2)
	read := func() {
		p, err := bp.GetNoFill(ids[1])
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(false)
	}
	read()
	before := bp.Stats().NoFillReads
	if n := testing.AllocsPerRun(200, read); n != 0 {
		t.Errorf("no-fill miss + Unpin allocates %v objects, want 0", n)
	}
	if got := bp.Stats().NoFillReads - before; got < 200 {
		t.Fatalf("only %d of the reads missed", got)
	}
}

// No-fill readers and Get readers (some dirtying pages, through a pool small
// enough to evict and write back) share pages concurrently, with an injected
// read delay so no-fill reads also meet frames still loading. Every read must
// see its page's bytes; -race checks the transient list and the frame hand-off.
func TestNoFillConcurrentWithGet(t *testing.T) {
	bp, _, ids := noFillPool(t, 4, 12)
	bp.SetReadDelay(20 * time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := ids[rng.Intn(len(ids))]
				noFill := g%2 == 0
				var p Page
				var err error
				if noFill {
					p, err = bp.GetNoFill(id)
				} else {
					p, err = bp.Get(id)
				}
				if err != nil {
					continue // only when the Get readers hold all four frames
				}
				if p.Data[0] != byte(id) {
					t.Errorf("page %d holds the bytes of page %d", id, p.Data[0])
				}
				p.Unpin(!noFill && i%5 == 0)
			}
		}(g)
	}
	wg.Wait()
	if st := bp.Stats(); st.NoFillReads == 0 || st.Evictions == 0 || st.Resident > 4 {
		t.Errorf("stats %+v: want no-fill misses, evictions and at most 4 frames", st)
	}
}
