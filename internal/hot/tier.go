package hot

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Sized is anything the tier can hold; all three hot structures satisfy it.
type Sized interface{ SizeBytes() int }

// Kind says which structure a Key names.
type Kind uint8

const (
	KindPostings Kind = iota // ID is the Trie-Symbol tree's symbol
	KindDocIDs               // the one Docid list; ID is 0
	KindSummary              // ID is the docid
)

// Key names one resident structure. It is comparable, so the engine builds
// it per lookup without allocating.
type Key struct {
	Kind Kind
	ID   uint32
}

// Tier is the budgeted cache: posting lists, docid lists and document
// summaries share one byte budget with LRU demotion. All methods are safe
// for concurrent use; readers under the engine's query locks and writers
// under its write locks interleave freely because the tier's own mutex
// orders every map/list touch.
type Tier struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	items  map[Key]*list.Element // value: *tierEntry
	lru    *list.List            // front = most recently used

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type tierEntry struct {
	key  Key
	size int64
	val  Sized
}

// NewTier returns a tier with the given byte budget (> 0).
func NewTier(budget int64) *Tier {
	return &Tier{budget: budget, items: map[Key]*list.Element{}, lru: list.New()}
}

// Budget returns the configured byte cap.
func (t *Tier) Budget() int64 { return t.budget }

// Bytes returns the bytes currently resident.
func (t *Tier) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// Len returns the number of resident items.
func (t *Tier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

// Get returns the item under key, marking it most recently used.
func (t *Tier) Get(key Key) (Sized, bool) {
	t.mu.Lock()
	el, ok := t.items[key]
	if ok {
		t.lru.MoveToFront(el)
	}
	t.mu.Unlock()
	if ok {
		t.hits.Add(1)
		return el.Value.(*tierEntry).val, true
	}
	t.misses.Add(1)
	return nil, false
}

// Add admits v under key, evicting least-recently-used items until it
// fits. An item larger than the whole budget is rejected. A key already
// resident is replaced.
func (t *Tier) Add(key Key, v Sized) bool { return t.add(key, v, true) }

// TryAdd admits v only if it fits without evicting anything. Preload uses
// it so filling the tier in priority order stops at the budget instead of
// demoting what was just loaded.
func (t *Tier) TryAdd(key Key, v Sized) bool { return t.add(key, v, false) }

func (t *Tier) add(key Key, v Sized, evict bool) bool {
	size := int64(v.SizeBytes())
	if size > t.budget {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		t.bytes -= el.Value.(*tierEntry).size
		t.lru.Remove(el)
		delete(t.items, key)
	}
	if t.bytes+size > t.budget && !evict {
		return false
	}
	for t.bytes+size > t.budget {
		back := t.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*tierEntry)
		t.bytes -= e.size
		t.lru.Remove(back)
		delete(t.items, e.key)
		t.evictions.Add(1)
	}
	t.items[key] = t.lru.PushFront(&tierEntry{key: key, size: size, val: v})
	t.bytes += size
	return true
}

// Invalidate drops the item under key, if resident.
func (t *Tier) Invalidate(key Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		t.bytes -= el.Value.(*tierEntry).size
		t.lru.Remove(el)
		delete(t.items, key)
	}
}

// InvalidateAll drops everything (forest rebuild, epoch swap).
func (t *Tier) InvalidateAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.items = map[Key]*list.Element{}
	t.lru.Init()
	t.bytes = 0
}

// Stats is a point-in-time snapshot of the tier's counters.
type Stats struct {
	Budget    int64  `json:"budget_bytes"`
	Bytes     int64  `json:"bytes"`
	Items     int    `json:"items"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the tier.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	bytes, items := t.bytes, len(t.items)
	t.mu.Unlock()
	return Stats{
		Budget:    t.budget,
		Bytes:     bytes,
		Items:     items,
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Evictions: t.evictions.Load(),
	}
}
