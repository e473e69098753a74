package pager

import (
	"container/list"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// A pin must cost no heap object, neither when the page is cached (the handle
// is a value, the LRU links live in the frame) nor on a miss (the frame comes
// from the evicted victim and carries what its waiters block on).
func TestGetUnpinAllocs(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 2)
	var ids [3]PageID
	for i := range ids {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = p.ID
		p.Unpin(true)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	get := func(id PageID) {
		p, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(false)
	}
	get(ids[0])
	if n := testing.AllocsPerRun(200, func() { get(ids[0]) }); n != 0 {
		t.Errorf("cached Get+Unpin allocates %v objects, want 0", n)
	}
	i := 0
	miss := func() { i++; get(ids[i%3]) } // 3 pages round-robin through 2 frames: every Get misses
	before := bp.Stats().PhysicalReads
	n := testing.AllocsPerRun(200, miss)
	if reads := bp.Stats().PhysicalReads - before; reads < 200 {
		t.Fatalf("only %d of the Gets missed", reads)
	}
	if n != 0 {
		t.Errorf("missing Get+Unpin allocates %v objects, want 0", n)
	}
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A pool costs what it holds: nothing that scales with its configured
// capacity, and per resident page the page bytes (one 8,192-byte size-class
// object) plus a small header and map entry — not the 9,472-byte class an
// inline page with its header rounds up to.
func TestPoolBytesPerPage(t *testing.T) {
	const capacity, pools = 8192, 32
	file := NewMemFile()
	before := liveHeap()
	empty := make([]*BufferPool, pools)
	for i := range empty {
		empty[i] = NewBufferPool(file, capacity)
	}
	perPool := (int64(liveHeap()) - int64(before)) / pools
	runtime.KeepAlive(empty)
	if perPool >= 1024 {
		t.Errorf("an empty %d-page pool costs %d bytes, want < 1 KiB", capacity, perPool)
	}

	const pages = 200
	for i := 0; i < pages; i++ {
		if _, err := file.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	before = liveHeap()
	bp := NewBufferPool(file, capacity)
	for id := PageID(0); id < pages; id++ {
		p, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(false)
	}
	perPage := (int64(liveHeap()) - int64(before)) / pages
	if st := bp.Stats(); st.Resident != pages {
		t.Fatalf("%d pages resident, want %d", st.Resident, pages)
	}
	runtime.KeepAlive(bp)
	t.Logf("empty pool %d B; %d B per resident page", perPool, perPage)
	if perPage > PageSize+192 {
		t.Errorf("a resident page costs %d bytes, want ≤ %d", perPage, PageSize+192)
	}
}

// lruModel is the reference the intrusive list replaced: container/list
// holding the unpinned resident pages, front = most recently unpinned.
type lruModel struct {
	capacity int
	order    *list.List
	resident map[PageID]*modelFrame
}

type modelFrame struct {
	pins  int
	dirty bool
	elem  *list.Element
}

// admit makes room for one more page; false means every frame is pinned.
func (m *lruModel) admit(id PageID, dirty bool) bool {
	for len(m.resident) >= m.capacity {
		back := m.order.Back()
		if back == nil {
			return false
		}
		delete(m.resident, m.order.Remove(back).(PageID))
	}
	m.resident[id] = &modelFrame{pins: 1, dirty: dirty}
	return true
}

func (m *lruModel) get(id PageID) bool {
	if fr, ok := m.resident[id]; ok {
		if fr.pins == 0 {
			m.order.Remove(fr.elem)
		}
		fr.pins++
		return true
	}
	return m.admit(id, false)
}

func (m *lruModel) unpin(id PageID, dirty bool) {
	fr := m.resident[id]
	fr.dirty = fr.dirty || dirty
	if fr.pins--; fr.pins == 0 {
		fr.elem = m.order.PushFront(id)
	}
}

// The pool must evict exactly what a textbook LRU evicts — physical read
// counts are a reported metric and have to repeat — and never a pinned page.
// After every step of a random trace the resident set is compared with the
// model's; equal sets after each step mean an identical victim sequence.
func TestLRUMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		bp := NewBufferPool(NewMemFile(), capacity)
		m := &lruModel{capacity: capacity, order: list.New(), resident: map[PageID]*modelFrame{}}
		var ids []PageID
		var pinned []Page
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4 && len(ids) > 0: // Get
				id := ids[rng.Intn(len(ids))]
				p, err := bp.Get(id)
				if want := m.get(id); (err == nil) != want {
					t.Fatalf("cap %d step %d: Get(%d) err=%v, model admits=%v", capacity, step, id, err, want)
				}
				if err == nil {
					pinned = append(pinned, p)
				}
			case op < 8 && len(pinned) > 0: // Unpin
				i := rng.Intn(len(pinned))
				dirty := rng.Intn(4) == 0
				m.unpin(pinned[i].ID, dirty)
				pinned[i].Unpin(dirty)
				pinned = append(pinned[:i], pinned[i+1:]...)
			case op == 8 && len(ids) < 40: // NewPage
				p, err := bp.NewPage()
				if exhausted := len(m.resident) >= capacity && m.order.Len() == 0; (err != nil) != exhausted {
					t.Fatalf("cap %d step %d: NewPage err=%v, model exhausted=%v", capacity, step, err, exhausted)
				}
				if err != nil {
					continue
				}
				m.admit(p.ID, true)
				ids = append(ids, p.ID)
				pinned = append(pinned, p)
			case op == 9:
				if rng.Intn(2) == 0 {
					if err := bp.FlushAll(); err != nil {
						t.Fatal(err)
					}
					for _, fr := range m.resident {
						fr.dirty = false
					}
				} else {
					bp.DropClean()
					for id, fr := range m.resident {
						if fr.pins == 0 && !fr.dirty {
							m.order.Remove(fr.elem)
							delete(m.resident, id)
						}
					}
				}
			}
			for _, id := range ids {
				if _, want := m.resident[id]; bp.Contains(id) != want {
					t.Fatalf("cap %d step %d: page %d resident=%v, model says %v", capacity, step, id, !want, want)
				}
			}
			for _, p := range pinned {
				if !bp.Contains(p.ID) {
					t.Fatalf("cap %d step %d: pinned page %d was evicted", capacity, step, p.ID)
				}
			}
		}
	}
}

// Eight goroutines pin and verify a shared set of pages through a pool small
// enough that they keep evicting each other's frames (some of them marked
// dirty, so victims are written back); -race checks the intrusive list and
// the frame reuse.
func TestConcurrentSharedPages(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 4)
	var ids []PageID
	for i := 0; i < 12; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(p.ID)
		ids = append(ids, p.ID)
		p.Unpin(true)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				id := ids[rng.Intn(len(ids))]
				p, err := bp.Get(id)
				if err != nil {
					// Only possible while the other seven hold all four frames.
					continue
				}
				if p.Data[0] != byte(id) {
					t.Errorf("page %d holds the bytes of page %d", id, p.Data[0])
				}
				p.Unpin(i%5 == 0)
			}
		}(int64(g))
	}
	wg.Wait()
	if st := bp.Stats(); st.Evictions == 0 {
		t.Error("no eviction happened; the test did not exercise frame reuse")
	}
}
